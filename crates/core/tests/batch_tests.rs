//! Deterministic functional tests for transaction merging (`txn_batch`):
//! logical/physical counter split, explicit boundaries, stop and
//! user-abort endings, cross-boundary capture, split/salvage under an
//! injected conflict, nesting inside a logical
//! transaction, and the typed layer riding unchanged inside a batch.

use std::cell::Cell;

use stm::{tx_object, Abort, CheckScope, LogKind, Mode, Site, StmRuntime, TxConfig, TxPtr};
use txmem::MemConfig;

static S: Site = Site::shared("batch.shared");
static S_CAP: Site = Site::captured_escaped("batch.captured");

fn cfg(merge_max: u32) -> TxConfig {
    TxConfig::builder()
        .mode(Mode::Runtime {
            log: LogKind::Tree,
            scope: CheckScope::FULL,
        })
        .merge_max(merge_max)
        .build()
        .unwrap()
}

#[test]
fn batch_commits_logical_txns_in_one_physical_commit() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let run = w.txn_batch(4, |b| {
        let v = b.read(&S, a)?;
        b.write(&S, a, v + 1)?;
        Ok(true)
    });
    assert_eq!(run.committed, 4);
    assert_eq!(run.user_abort, None);
    assert_eq!(w.load(a), 4);
    // `commits` counts logical transactions...
    assert_eq!(w.stats.commits, 4);
    assert_eq!(w.stats.aborts, 0);
    // ...while the merge telemetry shows one physical window carried all 4.
    assert_eq!(w.stats.merged_txns, 4);
    assert_eq!(w.stats.merge_splits, 0);
    assert_eq!(w.stats.merge_salvaged, 0);
}

#[test]
fn read_only_batch_is_clock_silent_per_window() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let run = w.txn_batch(6, |b| {
        b.read(&S, a)?;
        Ok(true)
    });
    assert_eq!(run.committed, 6);
    assert_eq!(w.stats.commits, 6);
    // One read-only *physical* commit for the whole window.
    assert_eq!(w.stats.commits_ro, 1);
    assert_eq!(w.stats.merged_txns, 6);
}

#[test]
fn merge_factor_one_behaves_like_plain_txns() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let run = w.txn_batch(1, |b| {
        let v = b.read(&S, a)?;
        b.write(&S, a, v + 1)?;
        Ok(true)
    });
    assert_eq!(run.committed, 1);
    assert_eq!(w.load(a), 1);
    assert_eq!(w.stats.commits, 1);
    // A window of one logical transaction is not "merged".
    assert_eq!(w.stats.merged_txns, 0);
}

#[test]
fn explicit_boundary_subdivides_an_invocation() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let invocations = Cell::new(0u64);
    // Each invocation carries two logical transactions (one explicit
    // boundary), so a budget of 6 takes 3 invocations.
    let run = w.txn_batch(6, |b| {
        invocations.set(invocations.get() + 1);
        let v = b.read(&S, a)?;
        b.write(&S, a, v + 1)?;
        b.boundary()?;
        let v = b.read(&S, a)?;
        b.write(&S, a, v + 1)?;
        Ok(true)
    });
    assert_eq!(run.committed, 6);
    assert_eq!(invocations.get(), 3);
    assert_eq!(w.load(a), 6);
    assert_eq!(w.stats.commits, 6);
    assert_eq!(w.stats.merged_txns, 6);
}

#[test]
fn stop_commits_the_stopping_invocation() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let run = w.txn_batch(8, |b| {
        let v = b.read(&S, a)?;
        b.write(&S, a, v + 1)?;
        Ok(v + 1 < 3) // stop after the third increment
    });
    assert_eq!(run.committed, 3);
    assert_eq!(run.user_abort, None);
    assert_eq!(w.load(a), 3);
    assert_eq!(w.stats.commits, 3);
    assert_eq!(w.stats.merged_txns, 3);
}

#[test]
fn user_abort_salvages_the_prefix() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let run = w.txn_batch(8, |b| {
        let v = b.read(&S, a)?;
        if v == 2 {
            return Err(Abort::User(7));
        }
        b.write(&S, a, v + 1)?;
        Ok(true)
    });
    assert_eq!(run.committed, 2);
    assert_eq!(run.user_abort, Some(7));
    // The aborting logical transaction rolled back, the prefix committed.
    assert_eq!(w.load(a), 2);
    assert_eq!(w.stats.commits, 2);
    assert_eq!(w.stats.user_aborts, 1);
    assert_eq!(w.stats.aborts, 0);
}

#[test]
fn user_abort_on_first_invocation_commits_nothing() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let run = w.txn_batch(8, |b| {
        let v = b.read(&S, a)?;
        b.write(&S, a, v + 1)?;
        Err(Abort::User(9))
    });
    assert_eq!(run.committed, 0);
    assert_eq!(run.user_abort, Some(9));
    assert_eq!(w.load(a), 0);
    assert_eq!(w.stats.commits, 0);
    assert_eq!(w.stats.user_aborts, 1);
    assert_eq!(w.stats.aborts, 0);
}

#[test]
fn capture_survives_logical_boundaries() {
    // A block allocated by logical transaction i is still captured when
    // logical transaction i+1 reads and writes it — the whole point of
    // merging — and a later logical transaction can free it safely (the
    // free defers to the physical commit).
    for nursery in [false, true] {
        let tx_cfg = TxConfig::builder()
            .mode(Mode::Runtime {
                log: LogKind::Tree,
                scope: CheckScope::FULL,
            })
            .nursery(nursery)
            .merge_max(8)
            .build()
            .unwrap();
        let rt = StmRuntime::new(MemConfig::small(), tx_cfg);
        let sum = rt.alloc_global(8);
        let mut w = rt.spawn_worker();
        let slot: Cell<Option<txmem::Addr>> = Cell::new(None);
        let run = w.txn_batch(3, |b| {
            match b.logical_index() {
                0 => {
                    let blk = b.alloc(16)?;
                    b.write(&S_CAP, blk, 10)?;
                    slot.set(Some(blk));
                }
                1 => {
                    let blk = slot.get().unwrap();
                    let v = b.read(&S_CAP, blk)?;
                    b.write(&S_CAP, blk, v + 5)?;
                }
                _ => {
                    let blk = slot.get().unwrap();
                    let v = b.read(&S_CAP, blk)?;
                    b.write(&S, sum, v)?;
                    b.free(blk);
                }
            }
            Ok(true)
        });
        assert_eq!(run.committed, 3, "nursery={nursery}");
        assert_eq!(w.load(sum), 15, "nursery={nursery}");
        let st = &w.stats;
        assert_eq!(st.commits, 3);
        assert_eq!(st.tx_allocs, 1);
        assert_eq!(st.tx_frees, 1);
        // The cross-boundary accesses stayed elided: no shared read
        // barrier fired at all (the captured block is the only thing
        // read), and the only full write barrier is the `sum` store.
        assert_eq!(st.reads.full, 0, "captured reads crossed boundaries elided");
        assert_eq!(st.writes.full, 1, "only the `sum` store is shared");
    }
}

#[test]
fn conflict_mid_batch_salvages_prefix_and_retries_unmerged() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(8));
    let a = rt.alloc_global(8); // prefix reads this
    let b1 = rt.alloc_global(64 * 8); // victim words in two distinct orecs
    let b2 = b1.word(63);
    let mut w = rt.spawn_worker();
    let mut intruder = rt.spawn_worker();
    let injected = Cell::new(false);
    let run = w.txn_batch(4, |b| {
        match b.logical_index() {
            0 => {
                let v = b.read(&S, a)?;
                b.write(&S, a, v + 1)?;
            }
            _ => {
                // Read b1, then (once) let another worker commit to both
                // victims: the subsequent read of b2 sees a newer orec,
                // snapshot extension re-validates, the b1 entry fails →
                // Conflict. The prefix (which never read b1/b2) stays
                // valid and is salvaged.
                let x = b.read(&S, b1)?;
                if !injected.replace(true) {
                    intruder.txn(|t| {
                        t.write(&S, b1, 100)?;
                        t.write(&S, b2, 200)?;
                        Ok(())
                    });
                }
                let y = b.read(&S, b2)?;
                b.write(&S, a, x + y)?;
            }
        }
        Ok(true)
    });
    assert_eq!(run.committed, 4);
    assert_eq!(w.load(a), 300);
    let st = &w.stats;
    assert_eq!(st.commits, 4, "all logical txns eventually committed");
    assert_eq!(st.aborts, 1, "the conflicting invocation aborted once");
    assert_eq!(st.merge_splits, 1);
    assert_eq!(st.merge_salvaged, 1, "the 1-txn prefix was salvaged early");
    // Salvaged prefix + degraded retry + resumed merged window for the
    // remaining two: windows of sizes 1/1/2 ⇒ only the last is merged.
    assert_eq!(st.merged_txns, 2);
}

#[test]
fn nested_transactions_work_inside_a_logical_txn() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(4));
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let run = w.txn_batch(3, |b| {
        let v = b.read(&S, a)?;
        // A nested child that user-aborts rolls back alone.
        let _ = b.nested(|t| {
            t.write(&S, a, 999)?;
            Err::<(), _>(Abort::User(1))
        });
        b.nested(|t| t.write(&S, a, v + 1))?.unwrap();
        Ok(true)
    });
    assert_eq!(run.committed, 3);
    assert_eq!(w.load(a), 3);
    assert_eq!(w.stats.commits, 3);
    assert_eq!(w.stats.partial_aborts, 3);
    assert_eq!(w.stats.merged_txns, 3);
}

tx_object! {
    /// Minimal typed record for the batch interop test.
    pub struct Node {
        /// Payload word.
        pub val: u64,
        /// Link to the next node.
        pub next: TxPtr<Node>,
    }
}

#[test]
fn typed_layer_works_inside_a_batch() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(4));
    let out = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    let head: Cell<Option<TxPtr<Node>>> = Cell::new(None);
    let run = w.txn_batch(3, |b| {
        match b.logical_index() {
            0 => {
                let n = b.alloc_obj::<Node>()?;
                b.write_field(&S_CAP, n, Node::val, 21u64)?;
                head.set(Some(n));
            }
            1 => {
                let n = head.get().unwrap();
                let v: u64 = b.read_field(&S_CAP, n, Node::val)?;
                b.write_field(&S_CAP, n, Node::val, v * 2)?;
            }
            _ => {
                let n = head.get().unwrap();
                let v: u64 = b.read_field(&S_CAP, n, Node::val)?;
                b.write(&S, out, v)?;
                b.free_obj(n);
            }
        }
        Ok(true)
    });
    assert_eq!(run.committed, 3);
    assert_eq!(w.load(out), 42);
    assert_eq!(w.stats.commits, 3);
    assert_eq!(w.stats.tx_allocs, 1);
    assert_eq!(w.stats.tx_frees, 1);
}

#[test]
#[should_panic(expected = "exceeds TxConfig::merge_max")]
fn batch_wider_than_merge_max_panics() {
    let rt = StmRuntime::new(MemConfig::small(), cfg(2));
    let mut w = rt.spawn_worker();
    let _ = w.txn_batch(3, |_| Ok(true));
}
