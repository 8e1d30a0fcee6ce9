//! Functional tests of the STM runtime: atomicity, isolation, rollback,
//! capture-based elision, nesting with partial abort, annotations, and the
//! compiler mode.

use stm::{Abort, CheckScope, LogKind, Mode, Site, StmRuntime, TxConfig};
use txmem::{Addr, MemConfig};

static S: Site = Site::shared("test.shared");
static S_CAP: Site = Site::captured_local("test.captured_local");
static S_ESC: Site = Site::captured_escaped("test.captured_escaped");

fn rt_with(mode: Mode) -> StmRuntime {
    StmRuntime::new(MemConfig::small(), TxConfig::with_mode(mode))
}

fn all_modes() -> Vec<Mode> {
    let mut v = vec![Mode::Baseline, Mode::Compiler];
    for log in LogKind::ALL {
        v.push(Mode::Runtime {
            log,
            scope: CheckScope::FULL,
        });
        v.push(Mode::Runtime {
            log,
            scope: CheckScope::WRITES_HEAP,
        });
    }
    v
}

#[test]
fn simple_commit_publishes_values() {
    for mode in all_modes() {
        let rt = rt_with(mode);
        let a = rt.alloc_global(16);
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            tx.write(&S, a, 7)?;
            tx.write(&S, a.word(1), 8)?;
            Ok(())
        });
        assert_eq!(w.load(a), 7, "{mode:?}");
        assert_eq!(w.load(a.word(1)), 8);
        assert_eq!(w.stats.commits, 1);
    }
}

#[test]
fn read_after_write_sees_own_update() {
    for mode in all_modes() {
        let rt = rt_with(mode);
        let a = rt.alloc_global(8);
        let mut w = rt.spawn_worker();
        let v = w.txn(|tx| {
            tx.write(&S, a, 41)?;
            let v = tx.read(&S, a)?;
            tx.write(&S, a, v + 1)?;
            tx.read(&S, a)
        });
        assert_eq!(v, 42, "{mode:?}");
        assert_eq!(w.load(a), 42);
    }
}

#[test]
fn user_abort_rolls_back_everything() {
    for mode in all_modes() {
        let rt = rt_with(mode);
        let a = rt.alloc_global(8);
        let mut w = rt.spawn_worker();
        w.store(a, 100);
        let heap_before = rt.heap().bytes_allocated();
        let res: Result<(), u64> = w.txn_result(|tx| {
            tx.write(&S, a, 999)?;
            let block = tx.alloc(64)?;
            tx.write(&S_ESC, block, 1)?;
            Err(Abort::User(13))
        });
        assert_eq!(res, Err(13), "{mode:?}");
        assert_eq!(w.load(a), 100, "undo must restore ({mode:?})");
        assert_eq!(
            rt.heap().bytes_allocated(),
            heap_before,
            "tx allocation must be undone ({mode:?})"
        );
        assert_eq!(w.stats.user_aborts, 1);
        assert_eq!(w.stats.commits, 0);
    }
}

#[test]
fn aborted_free_is_cancelled() {
    for mode in all_modes() {
        let rt = rt_with(mode);
        let shared_block = rt.alloc_global(64);
        let mut w = rt.spawn_worker();
        w.store(shared_block, 77);
        let res: Result<(), u64> = w.txn_result(|tx| {
            tx.free(shared_block);
            Err(Abort::User(1))
        });
        assert!(res.is_err());
        // The block must still be alive and intact.
        assert_eq!(w.load(shared_block), 77, "{mode:?}");
        // And allocating more must not hand out its memory.
        let other = w.alloc_raw(56);
        assert_ne!(other, shared_block);
    }
}

#[test]
fn committed_free_recycles() {
    let rt = rt_with(Mode::Baseline);
    let block = rt.alloc_global(64);
    let mut w = rt.spawn_worker();
    let before = rt.heap().bytes_allocated();
    w.txn(|tx| {
        tx.free(block);
        Ok(())
    });
    assert!(rt.heap().bytes_allocated() < before);
}

#[test]
fn capture_elides_tx_local_heap_writes() {
    for log in LogKind::ALL {
        let rt = rt_with(Mode::Runtime {
            log,
            scope: CheckScope::FULL,
        });
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let a = tx.alloc(32)?;
            tx.write(&S_ESC, a, 1)?;
            tx.write(&S_ESC, a.word(1), 2)?;
            assert_eq!(tx.read(&S_ESC, a)?, 1);
            Ok(())
        });
        assert_eq!(w.stats.writes.elided_heap, 2, "{log:?}");
        assert_eq!(w.stats.reads.elided_heap, 1, "{log:?}");
        assert_eq!(w.stats.writes.full, 0);
        assert_eq!(w.stats.reads.full, 0);
    }
}

#[test]
fn capture_elides_tx_local_stack() {
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let frame = tx.stack_push(4);
        tx.write(&S_ESC, frame, 10)?;
        tx.write(&S_ESC, frame.word(3), 13)?;
        assert_eq!(tx.read(&S_ESC, frame)?, 10);
        tx.stack_pop(4);
        Ok(())
    });
    assert_eq!(w.stats.writes.elided_stack, 2);
    assert_eq!(w.stats.reads.elided_stack, 1);
    assert_eq!(w.stats.writes.full, 0);
}

#[test]
fn live_in_stack_gets_full_barrier_and_undo() {
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    let mut w = rt.spawn_worker();
    // Frame pushed before the transaction: live-in, holds a live value.
    let frame = w.stack_push(2);
    w.store(frame, 55);
    let res: Result<(), u64> = w.txn_result(|tx| {
        tx.write(&S, frame, 99)?; // must NOT be elided
        Err(Abort::User(0))
    });
    assert!(res.is_err());
    assert_eq!(w.load(frame), 55, "live-in stack write must be undone");
    assert_eq!(w.stats.writes.elided_stack, 0);
    assert_eq!(w.stats.writes.full, 1);
    w.stack_pop(2);
}

#[test]
fn scope_restricts_checks() {
    // Heap-only, write-only scope: stack accesses and reads take the full
    // barrier even though they are captured.
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::WRITES_HEAP,
    });
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let a = tx.alloc(16)?;
        let f = tx.stack_push(1);
        tx.write(&S_ESC, a, 1)?; // heap write: elided
        tx.read(&S_ESC, a)?; // read: full (scope.reads = false)
        tx.write(&S_ESC, f, 2)?; // stack write: full (scope.stack = false)
        tx.stack_pop(1);
        Ok(())
    });
    assert_eq!(w.stats.writes.elided_heap, 1);
    assert_eq!(w.stats.reads.elided_heap, 0);
    assert_eq!(w.stats.reads.full, 1);
    assert_eq!(w.stats.writes.elided_stack, 0);
    assert_eq!(w.stats.writes.full, 1);
}

#[test]
fn compiler_mode_elides_static_sites_only() {
    let rt = rt_with(Mode::Compiler);
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let local = tx.alloc(16)?;
        tx.write(&S_CAP, local, 5)?; // statically proven: elided
        tx.write(&S_ESC, local.word(1), 6)?; // analysis missed it: full barrier
        tx.write(&S, a, 7)?; // shared: full barrier
        Ok(())
    });
    assert_eq!(w.stats.writes.elided_static, 1);
    assert_eq!(w.stats.writes.full, 2);
    assert_eq!(w.load(a), 7);
}

#[test]
fn baseline_elides_nothing() {
    let rt = rt_with(Mode::Baseline);
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let a = tx.alloc(16)?;
        let f = tx.stack_push(1);
        tx.write(&S_CAP, a, 1)?;
        tx.write(&S_ESC, f, 2)?;
        tx.read(&S_CAP, a)?;
        tx.stack_pop(1);
        Ok(())
    });
    let s = &w.stats;
    assert_eq!(s.writes.elided(), 0);
    assert_eq!(s.reads.elided(), 0);
    assert_eq!(s.writes.full, 2);
    assert_eq!(s.reads.full, 1);
}

#[test]
fn annotations_elide_private_blocks() {
    let mut cfg = TxConfig::default();
    cfg.annotations = true;
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let buf = rt.alloc_global(128);
    let mut w = rt.spawn_worker();
    w.add_private_memory_block(buf, 128);
    w.txn(|tx| {
        tx.write(&S, buf, 1)?; // annotated: elided even in Baseline mode
        tx.read(&S, buf)?;
        Ok(())
    });
    assert_eq!(w.stats.writes.elided_annotation, 1);
    assert_eq!(w.stats.reads.elided_annotation, 1);
    // Remove the annotation: barriers come back.
    w.remove_private_memory_block(buf, 128);
    w.txn(|tx| {
        tx.write(&S, buf, 2)?;
        Ok(())
    });
    assert_eq!(w.stats.writes.elided_annotation, 1);
    assert_eq!(w.stats.writes.full, 1);
}

#[test]
fn nested_commit_keeps_effects() {
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    let a = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        tx.write(&S, a, 1)?;
        let inner = tx.nested(|tx| {
            tx.write(&S, a, 2)?;
            Ok(77u64)
        })?;
        assert_eq!(inner, Ok(77));
        assert_eq!(tx.read(&S, a)?, 2);
        Ok(())
    });
    assert_eq!(w.load(a), 2);
}

#[test]
fn nested_partial_abort_rolls_back_child_only() {
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    let a = rt.alloc_global(16);
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        tx.write(&S, a, 1)?;
        let r: Result<(), u64> = tx.nested(|tx| {
            tx.write(&S, a, 99)?;
            tx.write(&S, a.word(1), 98)?;
            let _scratch = tx.alloc(32)?;
            Err(Abort::User(5))
        })?;
        assert_eq!(r, Err(5));
        // Child effects gone, parent effects intact.
        assert_eq!(tx.read(&S, a)?, 1);
        assert_eq!(tx.read(&S, a.word(1))?, 0);
        Ok(())
    });
    assert_eq!(w.load(a), 1);
    assert_eq!(w.stats.partial_aborts, 1);
    assert_eq!(w.stats.commits, 1);
}

#[test]
fn child_write_to_parent_captured_memory_is_undone_on_partial_abort() {
    // Paper §2.2.1: memory captured by the parent is live-in for the child;
    // the child's write needs undo logging even though no lock is needed.
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let parent_block = tx.alloc(16)?;
        tx.write(&S_ESC, parent_block, 10)?; // captured by parent: elided
        let r: Result<(), u64> = tx.nested(|tx| {
            tx.write(&S_ESC, parent_block, 20)?; // ancestor-captured: undo-logged
            Err(Abort::User(1))
        })?;
        assert_eq!(r, Err(1));
        assert_eq!(
            tx.read(&S_ESC, parent_block)?,
            10,
            "partial abort must restore parent-captured value"
        );
        Ok(())
    });
    assert!(w.stats.writes.parent_captured >= 1);
}

#[test]
fn sibling_after_committed_child_undo_logs_its_blocks() {
    // A block allocated by a committed child belongs to the parent; a second
    // child writing it must undo-log (level demotion on nested commit).
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let block = tx
            .nested(|tx| {
                let b = tx.alloc(16)?;
                tx.write(&S_ESC, b, 1)?;
                Ok(b)
            })?
            .unwrap();
        let r: Result<(), u64> = tx.nested(|tx| {
            tx.write(&S_ESC, block, 42)?;
            Err(Abort::User(9))
        })?;
        assert_eq!(r, Err(9));
        assert_eq!(
            tx.read(&S_ESC, block)?,
            1,
            "sibling's write must have been undone"
        );
        Ok(())
    });
}

#[test]
fn stack_frames_reset_on_abort() {
    let rt = rt_with(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    let mut w = rt.spawn_worker();
    let res: Result<(), u64> = w.txn_result(|tx| {
        let _f1 = tx.stack_push(8);
        let _f2 = tx.stack_push(8);
        Err(Abort::User(0)) // abort with frames still pushed
    });
    assert!(res.is_err());
    // After rollback the worker can push the full stack again: sp was reset.
    let f = w.stack_push(16);
    assert!(!f.is_null());
    w.stack_pop(16);
}

#[test]
fn concurrent_counter_is_exact() {
    for mode in all_modes() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::with_mode(mode));
        let counter = rt.alloc_global(8);
        const THREADS: usize = 4;
        const INCRS: usize = 500;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let rt = &rt;
                s.spawn(move || {
                    let mut w = rt.spawn_worker();
                    for _ in 0..INCRS {
                        w.txn(|tx| {
                            let v = tx.read(&S, counter)?;
                            tx.write(&S, counter, v + 1)
                        });
                    }
                });
            }
        });
        let w = rt.spawn_worker();
        assert_eq!(
            w.load(counter),
            (THREADS * INCRS) as u64,
            "lost updates under {mode:?}"
        );
    }
}

#[test]
fn concurrent_transfers_preserve_total() {
    // Bank-transfer atomicity test with captured scratch allocations mixed
    // in, across all modes.
    for mode in all_modes() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::with_mode(mode));
        const ACCOUNTS: u64 = 32;
        let table = rt.alloc_global(ACCOUNTS * 8);
        {
            let w = rt.spawn_worker();
            for i in 0..ACCOUNTS {
                w.store(table.word(i), 1000);
            }
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rt = &rt;
                s.spawn(move || {
                    let mut w = rt.spawn_worker();
                    let mut x = t + 1;
                    for _ in 0..300 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let from = (x >> 33) % ACCOUNTS;
                        // Distinct target: a from==to "transfer" with both
                        // reads up front would mint money in the *test*.
                        let to = (from + 1 + (x >> 13) % (ACCOUNTS - 1)) % ACCOUNTS;
                        w.txn(|tx| {
                            // Captured scratch block exercises elision under
                            // contention.
                            let scratch = tx.alloc(24)?;
                            tx.write(&S_ESC, scratch, from)?;
                            let f = tx.read(&S, table.word(from))?;
                            let g = tx.read(&S, table.word(to))?;
                            tx.write(&S, table.word(from), f.wrapping_sub(1))?;
                            tx.write(&S, table.word(to), g.wrapping_add(1))?;
                            tx.free(scratch);
                            Ok(())
                        });
                    }
                });
            }
        });
        let w = rt.spawn_worker();
        let total: u64 = (0..ACCOUNTS).map(|i| w.load(table.word(i))).sum();
        assert_eq!(total, ACCOUNTS * 1000, "money lost/created under {mode:?}");
    }
}

#[test]
fn opacity_no_torn_pairs() {
    // Writers keep the invariant a + b == 0 (two's complement) across two
    // distinct cache lines; readers must never observe a violation inside
    // a transaction.
    let rt = rt_with(Mode::Baseline);
    let a = rt.alloc_global(8);
    let b = rt.alloc_global(256); // far enough for a different line
    std::thread::scope(|s| {
        let rt_ref = &rt;
        s.spawn(move || {
            let mut w = rt_ref.spawn_worker();
            for i in 1..2000u64 {
                w.txn(|tx| {
                    tx.write(&S, a, i)?;
                    tx.write(&S, b, i.wrapping_neg())?;
                    Ok(())
                });
            }
        });
        s.spawn(move || {
            let mut w = rt_ref.spawn_worker();
            for _ in 0..2000 {
                let (x, y) = w.txn(|tx| Ok((tx.read(&S, a)?, tx.read(&S, b)?)));
                assert_eq!(x.wrapping_add(y), 0, "torn read: {x} {y}");
            }
        });
    });
}

#[test]
fn abort_to_commit_ratio_counts_conflicts() {
    let rt = rt_with(Mode::Baseline);
    let hot = rt.alloc_global(8);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                for _ in 0..500 {
                    w.txn(|tx| {
                        let v = tx.read(&S, hot)?;
                        // Lengthen the window to force conflicts.
                        for _ in 0..50 {
                            std::hint::spin_loop();
                        }
                        tx.write(&S, hot, v + 1)
                    });
                }
            });
        }
    });
    let stats = rt.collect_stats();
    assert_eq!(stats.commits, 2000);
    let w = rt.spawn_worker();
    assert_eq!(w.load(hot), 2000);
}

/// The records of neighbouring lines share a cache line of the orec table,
/// not a record: while A holds the lock on line X, B — run to commit on
/// the same thread, inside A's closure — writes line X+1 first try.
#[test]
fn neighbouring_lines_do_not_conflict() {
    let rt = rt_with(Mode::Baseline);
    let x = txmem::Addr((rt.alloc_global(192).raw() + 63) & !63);
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    a.txn(|tx| {
        tx.write(&S, x, 1)?;
        b.txn(|tb| tb.write(&S, x.offset(64), 2));
        Ok(())
    });
    assert_eq!((b.stats.commits, b.stats.aborts), (1, 0));
    assert_eq!((a.stats.commits, a.stats.aborts), (1, 0));
    assert_eq!((a.load(x), a.load(x.offset(64))), (1, 2));
}

/// A worker's snapshot carries over from its own last commit; begin reads
/// no clock. The snapshot is the clock the commit loaded, below the
/// version it published at, so re-reading its own commit extends once.
/// Another worker's later commit still reaches it: the first read of that
/// commit's words meets a version above the snapshot and extends once,
/// and the second word then lies inside the extended snapshot.
#[test]
fn carried_over_snapshot_sees_a_later_commit_and_extends_once() {
    let rt = rt_with(Mode::Baseline);
    let x = txmem::Addr((rt.alloc_global(192).raw() + 63) & !63);
    let y = x.offset(64);
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    a.txn(|tx| tx.write(&S, x, 1));
    assert_eq!(a.txn(|tx| tx.read(&S, x)), 1);
    assert_eq!(a.stats.extensions, 1);
    b.txn(|tx| {
        tx.write(&S, x, 10)?;
        tx.write(&S, y, 20)
    });
    let before = a.stats.extensions;
    let seen = a.txn(|tx| Ok((tx.read(&S, x)?, tx.read(&S, y)?)));
    assert_eq!(seen, (10, 20), "a carried-over snapshot missed a commit");
    assert_eq!(a.stats.extensions - before, 1);
    assert_eq!(a.stats.aborts, 0);
    // The extended snapshot carries over as well: nothing new to extend to.
    a.txn(|tx| Ok((tx.read(&S, x)?, tx.read(&S, y)?)));
    assert_eq!(a.stats.extensions - before, 1);
}

/// Real-time order with a stale snapshot: after another worker commits x
/// and then, in a second transaction, y, a read-only transaction reading
/// y first and x second sees both writes — one extension covers both.
#[test]
fn stale_snapshot_reader_sees_sequential_commits_in_real_time_order() {
    let rt = rt_with(Mode::Baseline);
    let x = txmem::Addr((rt.alloc_global(192).raw() + 63) & !63);
    let y = x.offset(64);
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    a.txn(|tx| Ok((tx.read(&S, x)?, tx.read(&S, y)?)));
    b.txn(|tx| tx.write(&S, x, 1));
    b.txn(|tx| tx.write(&S, y, 2));
    let before = a.stats.extensions;
    let seen = a.txn(|tx| Ok((tx.read(&S, y)?, tx.read(&S, x)?)));
    assert_eq!(seen, (2, 1), "a commit finished before begin was missed");
    assert_eq!(a.stats.extensions - before, 1);
    assert_eq!((a.stats.commits_ro, a.stats.aborts), (2, 0));
}

/// Commit-time validation checks each read entry once and trusts every
/// record the transaction locked itself; what keeps that sound is the
/// acquire. `a` reads x, `b` — run on the same thread inside `a`'s closure
/// — commits x, then `a` writes x: the acquire meets a version above `a`'s
/// snapshot, extends, and the extension fails on the read of x, so the
/// write itself conflicts. The retry reads `b`'s value.
#[test]
fn a_write_after_a_foreign_commit_of_its_read_conflicts_at_acquire() {
    let rt = rt_with(Mode::Baseline);
    let x = rt.alloc_global(8);
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    let mut first = true;
    a.txn(|ta| {
        let v = ta.read(&S, x)?;
        let racing = std::mem::take(&mut first);
        if racing {
            b.txn(|tb| tb.write(&S, x, 10));
        }
        let w = ta.write(&S, x, v + 1);
        assert_eq!(w.is_err(), racing, "the acquire of a stale read");
        w
    });
    assert_eq!(a.load(x), 11, "the retry lost b's commit");
    assert_eq!((a.stats.commits, a.stats.aborts), (1, 1));
    assert_eq!(a.stats.conflict_validation, 1);
    // The failed one at the acquire, then the retry's first read.
    assert_eq!(a.stats.extensions, 2);
}

/// A top-level acquire drops the read entries of the record it locks; a
/// nested one must not. `a` reads x, then a child writes x and aborts, so
/// the partial rollback releases x while `a`'s read of it stays in the
/// read set. `b` commits x, and `a`'s writing commit (of y) fails its
/// validation on that read. The retry copies `b`'s value.
#[test]
fn a_read_survives_a_child_that_locked_and_released_its_record() {
    let rt = rt_with(Mode::Baseline);
    let (x, y) = (rt.alloc_global(64), rt.alloc_global(64));
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    let mut first = true;
    a.txn(|ta| {
        let v = ta.read(&S, x)?;
        let r: Result<(), u64> = ta.nested(|tc| {
            tc.write(&S, x, 99)?;
            Err(Abort::User(1))
        })?;
        assert_eq!(r, Err(1));
        if std::mem::take(&mut first) {
            b.txn(|tb| tb.write(&S, x, 10));
        }
        ta.write(&S, y, v)
    });
    assert_eq!(a.load(y), 10, "a committed a read that b overwrote");
    assert_eq!((a.stats.commits, a.stats.aborts), (1, 1));
    assert_eq!(a.stats.conflict_validation, 1);
}

/// Writing commits only load the clock. Two workers alternating commits,
/// each on a line nobody wrote before, never write it: 40 commits, no
/// clock advance, and every commit published at 2. The first read of
/// those lines meets a version above the clock and advances it once.
#[test]
fn alternating_writers_on_disjoint_lines_never_write_the_clock() {
    let rt = rt_with(Mode::Baseline);
    let lines = rt.alloc_global(40 * 64 + 64);
    let line = |i: u64| txmem::Addr(((lines.raw() + 63) & !63) + i * 64);
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    for i in 0..20 {
        a.txn(|tx| tx.write(&S, line(2 * i), 1));
        b.txn(|tx| tx.write(&S, line(2 * i + 1), 1));
    }
    assert_eq!(rt.clock_value(), 0);
    for w in [&a, &b] {
        assert_eq!((w.stats.commits, w.stats.clock_advances), (20, 0));
        assert_eq!(w.stats.extensions, 0);
    }
    let sum = a.txn(|tx| (0..40).try_fold(0, |s, i| Ok(s + tx.read(&S, line(i))?)));
    assert_eq!(sum, 40);
    assert_eq!((a.stats.extensions, a.stats.clock_advances), (1, 1));
    assert_eq!(rt.clock_value(), 2);
}

/// Payload size of X: past the nursery's block limit, so a transaction
/// allocates it from the heap's own allocator, which hands a freed page
/// straight back (LIFO); small blocks bump in a nursery region instead.
const X_BYTES: u64 = txmem::NURSERY_MAX_BLOCK_BYTES;

/// `head → X`, X a block of `X_BYTES` whose first word is 5, so that once
/// `b` frees it, `b`'s next allocation of that size hands it back.
fn published_block(rt: &StmRuntime, b: &mut stm::WorkerCtx<'_>) -> (Addr, Addr) {
    let head = rt.alloc_global(8);
    let x = b.alloc_raw(X_BYTES);
    b.store(x, 5);
    b.store_as(head, x);
    (head, x)
}

/// A transaction that followed a link to X must not write X after X was
/// freed and recycled, or its abort would restore a stale pre-image over
/// the new owner's data. `a` reads `head → X`; `b` — run on the same
/// thread inside `a`'s closure — unlinks and frees X; `a` writes `X[0]`;
/// `b` reallocates X and initializes `X[0]` with a captured store; `a`
/// then fails validation. `b`'s value must survive.
#[test]
fn stale_writer_cannot_restore_over_a_recycled_block() {
    let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    let (head, x) = published_block(&rt, &mut b);
    let mut first = true;
    a.txn(|ta| {
        let p = ta.read_as::<Addr>(&S, head)?;
        if std::mem::take(&mut first) {
            b.txn(|tb| {
                tb.write_as(&S, head, Addr(0))?;
                tb.free(p);
                Ok(())
            });
            let stale = ta.write(&S, p, 111);
            b.txn(|tb| {
                let y = tb.alloc(X_BYTES)?;
                assert_eq!(y, p, "the freed block comes back LIFO");
                tb.write(&S_ESC, y, 222)?;
                tb.write_as(&S, head, y)
            });
            stale?;
        }
        Ok(())
    });
    assert_eq!(
        a.load(x),
        222,
        "a stale undo was restored over a recycled block"
    );
}

/// A read-only commit does not validate, so a read-only transaction must
/// never read a recycled block at all. `a` reads `head → X`; `b` unlinks
/// and frees X, reallocates it, initializes `X[0]` to 999 and parks it
/// elsewhere; `a` reads `X[0]` and commits. No serial order has `head ==
/// X` with `X[0] == 999`.
#[test]
fn read_only_commit_never_returns_a_recycled_block() {
    let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    let (head, x) = published_block(&rt, &mut b);
    let parked = rt.alloc_global(8);
    let mut first = true;
    let seen = a.txn(|ta| {
        let p = ta.read_as::<Addr>(&S, head)?;
        if std::mem::take(&mut first) {
            b.txn(|tb| {
                tb.write_as(&S, head, Addr(0))?;
                tb.free(p);
                Ok(())
            });
            b.txn(|tb| {
                let y = tb.alloc(X_BYTES)?;
                assert_eq!(y, p, "the freed block comes back LIFO");
                tb.write(&S_ESC, y, 999)?;
                tb.write_as(&S, parked, y)
            });
        }
        if p.is_null() {
            return Ok((p, 0));
        }
        Ok((p, ta.read(&S, p)?))
    });
    assert_ne!(seen, (x, 999), "read-only commit saw the recycled block");
    assert_eq!(seen, (Addr(0), 0));
}

/// A closure that panics inside a transaction unwinds through the attempt
/// guard of `WorkerCtx::txn`, which rolls the transaction back before the
/// worker is dropped: the next writer of the word — whichever thread id it
/// draws — commits on its first attempt and sees the pre-image. Bounded by a timeout, since a lock stranded by
/// the dead transaction would make that writer spin forever.
#[test]
fn unwinding_out_of_a_transaction_rolls_it_back() {
    let rt = std::sync::Arc::new(rt_with(Mode::Baseline));
    let a = rt.alloc_global(8);
    rt.spawn_worker().store(a, 7);
    let panicked = std::thread::scope(|s| {
        s.spawn(|| {
            rt.spawn_worker().txn(|tx| -> stm::TxResult<()> {
                tx.write(&S, a, 99)?;
                panic!("closure panics holding a lock");
            })
        })
        .join()
        .is_err()
    });
    assert!(panicked);
    let (done, result) = std::sync::mpsc::channel();
    let rt2 = rt.clone();
    std::thread::spawn(move || {
        let mut w = rt2.spawn_worker();
        let seen = w.txn(|tx| {
            let v = tx.read(&S, a)?;
            tx.write(&S, a, v + 1)?;
            Ok(v)
        });
        let _ = done.send((seen, w.stats.aborts));
    });
    let (seen, aborts) = result
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("the next writer is stuck behind the dead transaction's lock");
    assert_eq!((seen, aborts), (7, 0));
    assert_eq!(rt.spawn_worker().load(a), 8);
}

#[test]
fn stats_flush_on_drop_merges_into_runtime() {
    let rt = rt_with(Mode::Baseline);
    let a = rt.alloc_global(8);
    {
        let mut w = rt.spawn_worker();
        w.txn(|tx| tx.write(&S, a, 1));
    }
    let s = rt.collect_stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.writes.total, 1);
}

#[test]
fn classify_mode_buckets_fig8_categories() {
    let mut cfg = TxConfig::default(); // classification works on baseline
    cfg.classify = true;
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let shared = rt.alloc_global(8);
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let heap_block = tx.alloc(16)?;
        let frame = tx.stack_push(1);
        tx.write(&S_ESC, heap_block, 1)?; // -> class_heap
        tx.write(&S_ESC, frame, 2)?; // -> class_stack
        tx.write(&S, shared, 3)?; // -> class_required
        tx.read(Site::unneeded_static(), shared)?; // -> class_other
        tx.stack_pop(1);
        Ok(())
    });
    assert_eq!(w.stats.writes.class_heap, 1);
    assert_eq!(w.stats.writes.class_stack, 1);
    assert_eq!(w.stats.writes.class_required, 1);
    assert_eq!(w.stats.reads.class_other, 1);
}

// Helper: a static unneeded site usable from the test above.
trait UnneededStatic {
    fn unneeded_static() -> &'static Site;
}
impl UnneededStatic for Site {
    fn unneeded_static() -> &'static Site {
        static U: Site = Site::unneeded("test.unneeded");
        &U
    }
}

// ---------------------------------------------------------------------------
// Nursery allocation (TxConfig::nursery).
// ---------------------------------------------------------------------------

fn nursery_rt(log: LogKind) -> StmRuntime {
    let mut cfg = TxConfig::with_mode(Mode::Runtime {
        log,
        scope: CheckScope::FULL,
    });
    cfg.nursery = true;
    StmRuntime::new(MemConfig::small(), cfg)
}

/// Every arm bumps small blocks from the page its worker holds: with the
/// nursery off (baseline, runtime-tree), 64 small blocks take one nursery
/// region and no block page from the heap's own allocator, and an abort
/// gives every byte back.
#[test]
fn every_arm_bumps_small_blocks_from_one_region() {
    for cfg in [
        TxConfig::with_mode(Mode::Baseline),
        TxConfig::runtime_tree_full(),
    ] {
        let rt = StmRuntime::new(MemConfig::small(), cfg);
        let mut w = rt.spawn_worker();
        let live = rt.heap().bytes_allocated();
        let before = rt.heap().census();
        let alloc64 = |tx: &mut stm::Tx<'_, '_>| -> stm::TxResult<()> {
            for i in 0..64u64 {
                let p = tx.alloc(40 + i % 3 * 8)?;
                tx.write(&S_ESC, p, i)?;
            }
            Ok(())
        };
        let r = w.txn_result(|tx| {
            alloc64(tx)?;
            Err::<(), _>(Abort::User(1))
        });
        assert_eq!(r, Err(1));
        assert_eq!(
            rt.heap().bytes_allocated(),
            live,
            "{cfg:?}: the abort leaked"
        );
        assert_eq!(w.stats.nursery_regions, 1, "{cfg:?}");
        let c = rt.heap().census();
        assert_eq!((c.nursery_pages, c.free_pages), (0, 1), "its page is free");
        w.txn(alloc64);
        let after = rt.heap().census();
        assert_eq!(w.stats.nursery_regions, 2, "{cfg:?}: one per transaction");
        assert_eq!(after.block_pages, before.block_pages, "{cfg:?}");
        assert_eq!(
            (before.nursery_pages, after.nursery_pages),
            (0, 1),
            "{cfg:?}"
        );
        assert_eq!(w.stats.tx_allocs, 128);
    }
}

/// In-transaction alloc/free churn across nesting levels: every small
/// block freed within its allocating transaction dies on its nursery page
/// uncounted (or goes back to the bump pointer) — no large run is ever
/// taken, no byte leaks across commits or aborts, and every page the
/// nursery let go of went back to the pool.
#[test]
fn nursery_churn_frees_within_txn_across_levels() {
    for log in LogKind::ALL {
        let rt = nursery_rt(log);
        let baseline = rt.heap().bytes_allocated();
        let mut w = rt.spawn_worker();
        for round in 0..20u64 {
            let commit = round % 3 != 2;
            let r: Result<(), u64> = w.txn_result(|tx| {
                let mut live = Vec::new();
                for i in 0..12u64 {
                    let p = tx.alloc(16 + (i % 5) * 48)?;
                    tx.write(&S_ESC, p, i)?;
                    live.push(p);
                }
                // LIFO frees (bump-back) and mid-list frees (dead in
                // place) at the top level.
                let top = live.pop().unwrap();
                tx.free(top);
                let mid = live.remove(3);
                tx.free(mid);
                // Nested level: alloc, free-own (LIFO + middle), free parent
                // blocks (deferred), then either commit or partial-abort.
                let parent_victim = live.remove(0);
                let abort_child = round % 2 == 0;
                let survivors = tx.nested(|ntx| {
                    let mut child = Vec::new();
                    for j in 0..6u64 {
                        let q = ntx.alloc(24 + (j % 3) * 80)?;
                        ntx.write(&S_ESC, q, 100 + j)?;
                        child.push(q);
                    }
                    ntx.free(child.pop().unwrap()); // LIFO
                    ntx.free(child.remove(1)); // dies in place
                    ntx.free(parent_victim); // ancestor: deferred
                    for (j, &q) in child.iter().enumerate() {
                        let v = ntx.read(&S_ESC, q)?;
                        assert!(v >= 100, "child block clobbered: {v} at {j}");
                    }
                    if abort_child {
                        Err(Abort::User(1))
                    } else {
                        Ok(child)
                    }
                })?;
                // Blocks a committed child hands to the parent are now
                // parent-level captures; free them at the parent level.
                if let Ok(child_blocks) = survivors {
                    for q in child_blocks {
                        tx.free(q);
                    }
                }
                if abort_child {
                    // Partial abort cancelled the deferred free.
                    let v = tx.read(&S_ESC, parent_victim)?;
                    assert_eq!(v, 0, "resurrected block must keep its value");
                    tx.free(parent_victim);
                }
                // Remaining parent blocks are intact.
                for &p in &live {
                    let _ = tx.read(&S_ESC, p)?;
                }
                for p in live {
                    tx.free(p);
                }
                if commit {
                    Ok(())
                } else {
                    Err(Abort::User(7))
                }
            });
            assert_eq!(r.is_ok(), commit);
            assert_eq!(
                rt.heap().census().large_pages,
                0,
                "small-block churn must never take a large run ({log:?})"
            );
            assert_eq!(
                rt.heap().bytes_allocated(),
                baseline,
                "all churned bytes must be reclaimed after round {round} ({log:?})"
            );
        }
        let stats = w.stats;
        assert!(stats.nursery_hits > 0, "churn must exercise the nursery");
        // Nothing published survives, so every page the nursery took but
        // the one it holds came back whole.
        assert!(stats.nursery_regions > 1, "churn must switch pages");
        assert_eq!(
            stats.nursery_bytes_recycled,
            (stats.nursery_regions - 1) * txmem::PAGE_BYTES,
            "churn returns every page it let go of ({log:?})"
        );
        drop(w);
        assert_eq!(rt.heap().census().nursery_pages, 0, "and the held one");
    }
}

/// Commit publishes nursery blocks as ordinary heap memory: they survive
/// the transaction, `free` counts them off their page, and the next
/// transaction's nursery bumps on in the same page.
#[test]
fn nursery_blocks_survive_commit_and_free_normally() {
    let rt = nursery_rt(LogKind::Tree);
    let mut w = rt.spawn_worker();
    let p = w.txn(|tx| {
        let p = tx.alloc(64)?;
        for i in 0..8 {
            tx.write(&S_ESC, p.word(i), 0xC0 + i)?;
        }
        Ok(p)
    });
    for i in 0..8 {
        assert_eq!(w.load(p.word(i)), 0xC0 + i, "published value survives");
    }
    let live = rt.heap().bytes_allocated();
    w.free_raw(p);
    assert!(rt.heap().bytes_allocated() < live);
    // A later transaction must classify fresh nursery blocks again.
    let q = w.txn(|tx| {
        let q = tx.alloc(64)?;
        tx.write(&S_ESC, q, 1)?;
        Ok(q)
    });
    assert_eq!(w.load(q), 1);
    assert!(
        w.stats.nursery_hits >= 9,
        "both transactions used the nursery"
    );
}

/// Aborted transactions leave no trace: the whole nursery (several pages'
/// worth) is un-published wholesale.
#[test]
fn nursery_abort_reclaims_chained_regions() {
    let rt = nursery_rt(LogKind::Tree);
    let baseline = rt.heap().bytes_allocated();
    let mut w = rt.spawn_worker();
    let r: Result<(), u64> = w.txn_result(|tx| {
        // 8 page-filling blocks, with a large (non-nursery) allocation
        // interleaved: the nursery switches to a fresh page for each.
        for _ in 0..8 {
            let p = tx.alloc(4000)?;
            tx.write(&S_ESC, p, 9)?;
            let big = tx.alloc(9000)?;
            tx.write(&S_ESC, big, 7)?;
        }
        Err(Abort::User(3))
    });
    assert!(r.is_err());
    assert_eq!(
        rt.heap().bytes_allocated(),
        baseline,
        "abort must leak nothing"
    );
    let stats = w.stats;
    assert!(stats.nursery_regions >= 4, "chaining expected: {stats:?}");
    // The worker held no page when the transaction began, so the abort
    // lets go of every page it took, and each goes back to the pool.
    assert_eq!(
        stats.nursery_bytes_recycled,
        stats.nursery_regions * txmem::PAGE_BYTES,
        "every page must come back: {stats:?}"
    );
    let c = rt.heap().census();
    assert_eq!((c.nursery_pages, c.large_pages), (0, 0), "{c:?}");
}

/// Memory freed by transactions serves a larger class: small nursery
/// blocks fill nearly the whole heap, all of them are freed, and then
/// 264-byte blocks must still be served. A heap whose pages turn into
/// small-class blocks for good runs out here with almost nothing live.
#[test]
fn pages_freed_in_transactions_serve_a_larger_class() {
    let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_nursery());
    let heap_end = rt.mem().layout().heap_end;
    let mut w = rt.spawn_worker();
    let mut blocks = Vec::new();
    while heap_end - rt.heap().frontier() >= 8192 + 64 {
        let got = w.txn(|tx| (0..16).map(|_| tx.alloc(24)).collect::<Result<Vec<_>, _>>());
        blocks.extend(got);
    }
    assert!(blocks.len() > 10_000, "{} blocks", blocks.len());
    for chunk in blocks.chunks(16) {
        w.txn(|tx| {
            for &b in chunk {
                tx.free(b);
            }
            Ok(())
        });
    }
    assert_eq!(rt.heap().bytes_allocated(), 0, "everything was freed");
    for i in 0..64u64 {
        let p = w.txn(|tx| {
            let p = tx.alloc(264)?;
            tx.write(&S_ESC, p, i)?;
            Ok(p)
        });
        assert_eq!(w.load(p), i);
    }
}
