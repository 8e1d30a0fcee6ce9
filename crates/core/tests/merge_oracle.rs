//! Differential oracle for transaction merging (ISSUE 7, satellite): a
//! random script of logical transactions executed **merged**
//! (`WorkerCtx::txn_batch`) and **unmerged** (one `txn_result` each) must
//! produce bit-identical observable memory and identical *logical*
//! statistics — commits, aborts, user/partial aborts, alloc/free counts,
//! and total barrier traffic — across barrier log kinds × nursery on/off.
//!
//! The scripts stress exactly the hazards the split/salvage machinery must
//! get right:
//!
//! * **allocs and frees crossing boundaries** — a logical transaction
//!   operates on blocks allocated by its predecessors in the same batch
//!   (ancestor-captured in the merged run, committed-shared in the
//!   unmerged run) and frees them (deferred to the physical commit when
//!   merged);
//! * **nested transactions inside a logical transaction**, including
//!   partially-aborting ones;
//! * **forced conflicts**: an intruder worker invalidates a logical
//!   transaction's snapshot mid-flight (once per marked index), forcing
//!   the merged run to split, salvage the prefix, and retry the remainder
//!   unmerged — the deterministic companion forces this at *every*
//!   boundary index of a batch;
//! * **user aborts** ending a batch early.
//!
//! Memory is compared through block handles, not raw addresses: merging
//! defers cross-boundary frees to the physical commit, so allocation
//! placement may legitimately differ between the two runs. Statistics are
//! compared redacted to the logical counters — the physical-commit
//! telemetry (`commits_ro`, `clock_adopts`, backoff, nursery region
//! counts, and the `merge_*` counters themselves) differs by design. The
//! `commits` equality is the satellite-6 assertion: merged `commits`
//! counts logical transactions, not physical windows.

use std::cell::{Cell, RefCell};

mod common;

use proptest::prelude::*;
use stm::{Abort, CheckScope, LogKind, Mode, Site, StmRuntime, Tx, TxConfig, TxResult};
use txmem::{Addr, MemConfig};

static S_SHARED: Site = Site::shared("merge.shared");
static S_CAP: Site = Site::captured_escaped("merge.captured");
static S_LOCAL: Site = Site::captured_local("merge.local");

const CELLS: u64 = 12;
/// Words between the two victim cells of one logical index (different
/// 64-byte orec granules).
const VICTIM_STRIDE: u64 = 16;

#[derive(Clone, Debug)]
enum Op {
    /// Small bump allocation (nursery scalar path when on).
    Alloc { words: u8 },
    /// Region-filling allocation (forces nursery chaining/demotion).
    AllocBig { words: u16 },
    /// Write through a live scratch block — possibly one allocated by an
    /// *earlier logical transaction* of the same batch (ancestor path).
    WriteScratch { idx: u8, word: u8, val: u64 },
    /// Read a scratch word, publish to a shared cell.
    PublishScratch { idx: u8, word: u8, cell: u8 },
    /// Free a live scratch block — cross-boundary frees defer when merged.
    Free { idx: u8 },
    /// Full-barrier shared traffic.
    WriteShared { cell: u8, val: u64 },
    /// Stack fast-path round.
    StackRound { words: u8, val: u64, cell: u8 },
}

#[derive(Clone, Debug)]
struct LogicalTxn {
    ops: Vec<Op>,
    nested: Vec<Op>,
    abort_nested: bool,
    /// End this logical transaction with `Err(Abort::User(..))`.
    user_abort: bool,
    /// Invalidate this logical transaction's snapshot mid-flight (once).
    inject_conflict: bool,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1..6u8).prop_map(|words| Op::Alloc { words }),
        1 => (260..500u16).prop_map(|words| Op::AllocBig { words }),
        3 => (any::<u8>(), any::<u8>(), any::<u64>())
            .prop_map(|(idx, word, val)| Op::WriteScratch { idx, word, val }),
        2 => (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(idx, word, cell)| Op::PublishScratch { idx, word, cell }),
        2 => any::<u8>().prop_map(|idx| Op::Free { idx }),
        2 => (any::<u8>(), any::<u64>()).prop_map(|(cell, val)| Op::WriteShared { cell, val }),
        1 => (1..5u8, any::<u64>(), any::<u8>())
            .prop_map(|(words, val, cell)| Op::StackRound { words, val, cell }),
    ]
}

fn logical_txn() -> impl Strategy<Value = LogicalTxn> {
    (
        proptest::collection::vec(op(), 1..8),
        proptest::collection::vec(op(), 0..4),
        any::<bool>(),
        prop_oneof![5 => Just(false), 1 => Just(true)],
        prop_oneof![3 => Just(false), 2 => Just(true)],
    )
        .prop_map(
            |(ops, nested, abort_nested, user_abort, inject_conflict)| LogicalTxn {
                ops,
                nested,
                abort_nested,
                user_abort,
                inject_conflict,
            },
        )
}

fn script() -> impl Strategy<Value = Vec<LogicalTxn>> {
    proptest::collection::vec(logical_txn(), 2..9)
}

type Scratch = Vec<(Addr, u16)>;

fn run_ops(tx: &mut Tx<'_, '_>, base: Addr, ops: &[Op], scratch: &mut Scratch) -> TxResult<()> {
    for op in ops {
        match *op {
            Op::Alloc { words } => {
                let p = tx.alloc(u64::from(words) * 8)?;
                tx.write(&S_LOCAL, p, 0x5EED)?;
                scratch.push((p, u16::from(words)));
            }
            Op::AllocBig { words } => {
                let p = tx.alloc(u64::from(words) * 8)?;
                tx.write(&S_LOCAL, p, 0xB16)?;
                scratch.push((p, words));
            }
            Op::WriteScratch { idx, word, val } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    tx.write(&S_CAP, p.word(u64::from(word) % u64::from(words)), val)?;
                }
            }
            Op::PublishScratch { idx, word, cell } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    let v = tx.read(&S_CAP, p.word(u64::from(word) % u64::from(words)))?;
                    tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), v)?;
                }
            }
            Op::Free { idx } => {
                if !scratch.is_empty() {
                    let (p, _) = scratch.remove(idx as usize % scratch.len());
                    tx.free(p);
                }
            }
            Op::WriteShared { cell, val } => {
                tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), val)?;
            }
            Op::StackRound { words, val, cell } => {
                let f = tx.stack_push(words as usize);
                tx.write(&S_CAP, f, val)?;
                let v = tx.read(&S_CAP, f)?;
                tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), v ^ 0xF00D)?;
                tx.stack_pop(words as usize);
            }
        }
    }
    Ok(())
}

/// One logical transaction's body, shared verbatim by both executors. The
/// scratch ledger is kept transactionally consistent from the outside:
/// `snapshots[i]` is the ledger after `i` committed logical transactions,
/// and every (re-)execution of logical transaction `gi` restores
/// `snapshots[gi]` first — so splits, retries, and aborts can never leak
/// bookkeeping from a rolled-back attempt.
#[allow(clippy::too_many_arguments)]
fn logical_body(
    tx: &mut Tx<'_, '_>,
    t: &LogicalTxn,
    gi: usize,
    base: Addr,
    victims: Addr,
    injected: &[Cell<bool>],
    intruder: &mut stm::WorkerCtx<'_>,
    snapshots: &RefCell<Vec<Scratch>>,
) -> TxResult<()> {
    let mut scratch = {
        let mut snaps = snapshots.borrow_mut();
        snaps.truncate(gi + 1);
        snaps[gi].clone()
    };
    if t.inject_conflict {
        let v1 = victims.word(gi as u64 * VICTIM_STRIDE);
        let v2 = victims.word(gi as u64 * VICTIM_STRIDE + 8);
        let x = tx.read(&S_SHARED, v1)?;
        if !injected[gi].replace(true) {
            intruder.txn(|it| {
                it.write(&S_SHARED, v1, x + 100)?;
                it.write(&S_SHARED, v2, x + 200)
            });
        }
        // Sees the intruder's newer orec on the first attempt; snapshot
        // extension re-validates, the v1 entry fails -> Conflict.
        let y = tx.read(&S_SHARED, v2)?;
        tx.write(&S_SHARED, base.word(gi as u64 % CELLS), x ^ y)?;
    }
    run_ops(tx, base, &t.ops, &mut scratch)?;
    if !t.nested.is_empty() || t.abort_nested {
        let snapshot = scratch.clone();
        let abort_nested = t.abort_nested;
        let nested_ops = &t.nested;
        let res = tx.nested(|ntx| {
            run_ops(ntx, base, nested_ops, &mut scratch)?;
            if abort_nested {
                Err(Abort::User(9))
            } else {
                Ok(())
            }
        })?;
        if res.is_err() {
            scratch = snapshot;
        }
    }
    if t.user_abort {
        return Err(Abort::User(gi as u64 + 1));
    }
    snapshots.borrow_mut().push(scratch);
    Ok(())
}

struct RunCfg {
    log: LogKind,
    nursery: bool,
    /// `None` = unmerged (one `txn_result` per logical transaction).
    merge: Option<usize>,
}

/// Execute the script and return (observable memory via handles, redacted
/// logical stats).
fn run(script: &[LogicalTxn], rc: &RunCfg) -> (Vec<u64>, String) {
    let mut cfg = TxConfig::builder()
        .mode(Mode::Runtime {
            log: rc.log,
            scope: CheckScope::FULL,
        })
        .nursery(rc.nursery)
        .merge_max(rc.merge.unwrap_or(1).max(1) as u32)
        .build()
        .unwrap();
    cfg.orec_log2 = 12;
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let base = rt.alloc_global(CELLS * 8);
    let victims = rt.alloc_global(script.len() as u64 * VICTIM_STRIDE * 8);
    let mut w = rt.spawn_worker();
    let mut intruder = rt.spawn_worker();
    let injected: Vec<Cell<bool>> = (0..script.len()).map(|_| Cell::new(false)).collect();
    let snapshots: RefCell<Vec<Scratch>> = RefCell::new(vec![Vec::new()]);

    let mut done = 0usize;
    while done < script.len() {
        match rc.merge {
            None => {
                let t = &script[done];
                let gi = done;
                let r: Result<(), u64> = w.txn_result(|tx| {
                    logical_body(
                        tx,
                        t,
                        gi,
                        base,
                        victims,
                        &injected,
                        &mut intruder,
                        &snapshots,
                    )
                });
                done += 1;
                if r.is_err() {
                    // The aborted logical transaction left no effects.
                    let mut snaps = snapshots.borrow_mut();
                    snaps.truncate(done);
                    let unchanged = snaps[done - 1].clone();
                    snaps.push(unchanged);
                }
            }
            Some(width) => {
                let offset = done;
                let quota = width.min(script.len() - done);
                let run = w.txn_batch(quota, |b| {
                    let gi = offset + b.logical_index() as usize;
                    let t = &script[gi];
                    logical_body(
                        &mut *b,
                        t,
                        gi,
                        base,
                        victims,
                        &injected,
                        &mut intruder,
                        &snapshots,
                    )?;
                    Ok(true)
                });
                done += run.committed as usize;
                if run.user_abort.is_some() {
                    let mut snaps = snapshots.borrow_mut();
                    snaps.truncate(done + 1);
                    let unchanged = snaps[done].clone();
                    snaps.push(unchanged);
                    done += 1;
                }
            }
        }
    }

    let mut mem: Vec<u64> = (0..CELLS).map(|i| w.load(base.word(i))).collect();
    for gi in 0..script.len() as u64 {
        mem.push(w.load(victims.word(gi * VICTIM_STRIDE)));
        mem.push(w.load(victims.word(gi * VICTIM_STRIDE + 8)));
    }
    let snaps = snapshots.borrow();
    for &(p, words) in snaps.last().unwrap() {
        for i in 0..u64::from(words) {
            mem.push(w.load(p.word(i)));
        }
    }
    let logical_stats = common::logical_line(&w.stats);
    (mem, logical_stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The satellite's oracle: merged execution is observably identical to
    // unmerged execution — same committed memory (via handles), same
    // logical statistics — under split/salvage, for every log kind and
    // nursery setting the case picks.
    #[test]
    fn merged_matches_unmerged(
        script in script(),
        log_idx in 0..LogKind::ALL.len(),
        nursery in any::<bool>(),
        width in 2..6usize,
    ) {
        let log = LogKind::ALL[log_idx];
        let unmerged = run(&script, &RunCfg {
            log, nursery, merge: None,
        });
        let merged = run(&script, &RunCfg {
            log, nursery, merge: Some(width),
        });
        prop_assert_eq!(&merged.0, &unmerged.0, "memory diverged when merged");
        prop_assert_eq!(&merged.1, &unmerged.1, "logical stats diverged when merged");
    }
}

/// Deterministic companion: force a conflict at *every* boundary index of
/// a width-4 batch in turn, and check the merge telemetry actually fired
/// (guards the property above against passing vacuously).
#[test]
fn conflict_at_every_boundary_index_salvages() {
    for conflict_at in 0..4usize {
        let script: Vec<LogicalTxn> = (0..4)
            .map(|i| LogicalTxn {
                ops: vec![
                    Op::Alloc { words: 4 },
                    Op::WriteScratch {
                        idx: 0,
                        word: 1,
                        val: 0xC0 + i as u64,
                    },
                    Op::PublishScratch {
                        idx: i as u8,
                        word: 1,
                        cell: i as u8,
                    },
                ],
                nested: vec![],
                abort_nested: false,
                user_abort: false,
                inject_conflict: i == conflict_at,
            })
            .collect();
        let rc_un = RunCfg {
            log: LogKind::Tree,
            nursery: true,
            merge: None,
        };
        let rc_m = RunCfg {
            log: LogKind::Tree,
            nursery: true,
            merge: Some(4),
        };
        let unmerged = run(&script, &rc_un);
        let merged = run(&script, &rc_m);
        assert_eq!(merged.0, unmerged.0, "conflict_at={conflict_at}");
        assert_eq!(merged.1, unmerged.1, "conflict_at={conflict_at}");
    }

    // Re-run one merged case and inspect the merge telemetry: conflict at
    // index 2 must split the window and salvage the 2-transaction prefix.
    let script: Vec<LogicalTxn> = (0..4)
        .map(|i| LogicalTxn {
            ops: vec![Op::WriteShared {
                cell: i as u8,
                val: i as u64 + 1,
            }],
            nested: vec![],
            abort_nested: false,
            user_abort: false,
            inject_conflict: i == 2,
        })
        .collect();
    let cfg = TxConfig::builder()
        .mode(Mode::Runtime {
            log: LogKind::Tree,
            scope: CheckScope::FULL,
        })
        .merge_max(4)
        .build()
        .unwrap();
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let base = rt.alloc_global(CELLS * 8);
    let victims = rt.alloc_global(4 * VICTIM_STRIDE * 8);
    let mut w = rt.spawn_worker();
    let mut intruder = rt.spawn_worker();
    let injected: Vec<Cell<bool>> = (0..4).map(|_| Cell::new(false)).collect();
    let snapshots: RefCell<Vec<Scratch>> = RefCell::new(vec![Vec::new()]);
    let run = w.txn_batch(4, |b| {
        let gi = b.logical_index() as usize;
        logical_body(
            &mut *b,
            &script[gi],
            gi,
            base,
            victims,
            &injected,
            &mut intruder,
            &snapshots,
        )?;
        Ok(true)
    });
    assert_eq!(run.committed, 4);
    let s = &w.stats;
    assert_eq!(s.commits, 4, "commits counts logical transactions");
    assert_eq!(s.aborts, 1, "one abort for the conflicting invocation");
    assert_eq!(s.merge_splits, 1);
    assert_eq!(s.merge_salvaged, 2, "the clean 2-txn prefix was salvaged");
    // Salvaged window (2) + degraded retry (1) + resumed window (1): only
    // the first carried >= 2 logical transactions.
    assert_eq!(s.merged_txns, 2);
}

#[test]
#[ignore]
fn debug_find_failing_case() {
    for case in 0..48 {
        let mut rng = proptest::TestRng::for_case("merge_oracle::merged_matches_unmerged", case);
        let s = proptest::Strategy::generate(&script(), &mut rng);
        let log_idx = proptest::Strategy::generate(&(0..LogKind::ALL.len()), &mut rng);
        let nursery = proptest::Strategy::generate(&any::<bool>(), &mut rng);
        let width = proptest::Strategy::generate(&(2..6usize), &mut rng);
        let log = LogKind::ALL[log_idx];
        let unmerged = run(
            &s,
            &RunCfg {
                log,
                nursery,
                merge: None,
            },
        );
        let merged = run(
            &s,
            &RunCfg {
                log,
                nursery,
                merge: Some(width),
            },
        );
        if merged.0 != unmerged.0 || merged.1 != unmerged.1 {
            println!("case {case} FAILS (log={log:?} nursery={nursery} width={width}):\n{s:#?}");
            return;
        }
    }
    println!("no failing case");
}
