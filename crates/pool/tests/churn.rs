//! Multi-thread churn stress (ISSUE 10 satellite): the pool under
//! concurrent insert/pop/remove/promote/purge traffic with the nursery,
//! transaction merging, and schedule chaos engaged — and an explicit
//! check that the telemetry those features emit is *non-degenerate*
//! (`nursery_regions > 0`, `merged_txns > 0`, and a seed sweep that
//! actually observes `merge_splits > 0`), so a regression that silently
//! disables a subsystem cannot hide behind green invariants. The chaos arm
//! also panics a seeded 1-in-N of its op closures after the op's writes:
//! each panic must roll the op back and leave its worker running.

use pool::{Item, PoolConfig, TxPool};
use stm::{ChaosPlan, CheckScope, LogKind, Mode, StmRuntime, TxConfig, TxObject, TxStats};
use txmem::MemConfig;

const THREADS: u64 = 3;
const ROUNDS: usize = 400;
const BUDGET: u64 = 16 * Item::BYTES;

#[derive(Clone)]
enum Op {
    Insert {
        id: u64,
        sender: u64,
        nonce: u64,
        prio: u64,
        pw: u64,
    },
    PopBest,
    Remove {
        id: u64,
    },
    Promote {
        id: u64,
        prio: u64,
    },
    RemoveSender {
        sender: u64,
    },
}

/// xorshift64* — local copy; the pool crate deliberately has no
/// dev-dependency on the bench crate's shared generator.
fn next(x: &mut u64) -> u64 {
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A deterministic per-thread op stream: mostly inserts with rotating
/// priorities (so eviction churns), plus pops, removes of own ids,
/// promotes, and sender purges.
fn ops_for(thread: u64, seed: u64) -> Vec<Op> {
    let mut x = seed ^ (thread + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut ops = Vec::with_capacity(ROUNDS);
    let mut seq = 0u64;
    for _ in 0..ROUNDS {
        let r = next(&mut x) % 100;
        let own = |s: u64, n: u64| (thread + 1) << 32 | (n % s.max(1)).wrapping_add(1);
        ops.push(match r {
            0..=59 => {
                seq += 1;
                Op::Insert {
                    id: (thread + 1) << 32 | seq,
                    sender: next(&mut x) % 4,
                    nonce: seq,
                    prio: next(&mut x) % 64,
                    pw: next(&mut x) % 3,
                }
            }
            60..=74 => Op::PopBest,
            75..=84 => Op::Remove {
                id: own(seq, next(&mut x)),
            },
            85..=94 => Op::Promote {
                id: own(seq, next(&mut x)),
                prio: next(&mut x) % 64,
            },
            _ => Op::RemoveSender {
                sender: next(&mut x) % 4,
            },
        });
    }
    ops
}

fn apply(pool: &TxPool, tx: &mut stm::Tx<'_, '_>, op: &Op) -> stm::TxResult<()> {
    match *op {
        Op::Insert {
            id,
            sender,
            nonce,
            prio,
            pw,
        } => {
            pool.insert(tx, id, sender, nonce, prio, pw)?;
        }
        Op::PopBest => {
            pool.pop_best(tx)?;
        }
        Op::Remove { id } => {
            pool.remove(tx, id)?;
        }
        Op::Promote { id, prio } => {
            pool.promote(tx, id, prio)?;
        }
        Op::RemoveSender { sender } => {
            pool.remove_sender(tx, sender)?;
        }
    }
    Ok(())
}

/// Run the churn under `cfg`; `merge > 1` routes every thread's stream
/// through `txn_batch` windows, and `panic_one_in = n > 0` (unmerged
/// only) unwinds out of about one op closure in `n`, after the op ran.
/// Returns the merged runtime stats after `seq_check` and the
/// conservation law have passed, and every op that did not panic
/// committed.
fn churn(cfg: TxConfig, merge: usize, seed: u64, panic_one_in: u64) -> TxStats {
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let pool = TxPool::create(
        &rt,
        PoolConfig {
            budget_bytes: BUDGET,
            bloom_words: 64,
        },
    );
    rt.reset_stats();
    let lost = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (rt, lost) = (&rt, &lost);
            s.spawn(move || {
                let ops = ops_for(t, seed);
                let mut doom = seed.rotate_left(t as u32 * 8) | 1;
                let mut w = rt.spawn_worker();
                if merge > 1 {
                    for window in ops.chunks(merge) {
                        let run = w.txn_batch(window.len(), |b| {
                            let i = b.logical_index() as usize;
                            apply(&pool, b, &window[i])?;
                            Ok(true)
                        });
                        assert_eq!(run.committed, window.len() as u64);
                    }
                } else {
                    for op in &ops {
                        let doomed =
                            panic_one_in > 0 && next(&mut doom).is_multiple_of(panic_one_in);
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            w.txn(|tx| {
                                apply(&pool, tx, op)?;
                                if doomed {
                                    // Skips the panic hook: the output stays quiet.
                                    std::panic::resume_unwind(Box::new("injected op panic"));
                                }
                                Ok(())
                            })
                        }));
                        if caught.is_err() {
                            lost.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let w = rt.spawn_worker();
    pool.seq_check(&w);
    let c = pool.seq_counters(&w);
    assert!(c.inserted > 0 && c.evicted > 0, "churn too tame: {c:?}");
    assert_eq!(
        c.inserted,
        c.count + c.evicted + c.popped + c.removed + c.purged,
        "item conservation violated: {c:?}"
    );
    let (s, lost) = (rt.collect_stats(), lost.into_inner());
    assert_eq!(panic_one_in > 0, lost > 0, "injected panics must fire");
    assert!(
        s.commits + lost >= THREADS * ROUNDS as u64,
        "{lost} lost: {s:?}"
    );
    s
}

fn merged_cfg(chaos: Option<ChaosPlan>) -> TxConfig {
    let mut b = TxConfig::builder()
        .mode(Mode::Runtime {
            log: LogKind::Tree,
            scope: CheckScope::FULL,
        })
        .nursery(true)
        .merge_max(4);
    if let Some(plan) = chaos {
        b = b.chaos(plan);
    }
    b.build().expect("static churn config")
}

/// Nursery arm: transactional item allocation must actually route
/// through bump regions, not silently fall back to the classic path.
#[test]
fn churn_under_nursery_exercises_regions() {
    let s = churn(TxConfig::runtime_tree_nursery(), 1, 0xA11CE, 0);
    assert!(s.commits >= THREADS * ROUNDS as u64);
    assert!(s.nursery_regions > 0, "nursery idle during churn: {s:?}");
    assert!(s.tx_allocs > 0);
}

/// Merge arm: windows must actually merge, and a short seed sweep must
/// catch the window-split path at least once — three threads hammering
/// the same header words conflict reliably under schedule chaos.
#[test]
fn churn_under_merge_exercises_windows_and_splits() {
    let s = churn(merged_cfg(None), 4, 0xB0B, 0);
    assert!(s.merged_txns > 0, "merging idle during churn: {s:?}");

    let mut split_seen = false;
    for seed in 1..=5u64 {
        let s = churn(merged_cfg(Some(ChaosPlan::all(seed, 7))), 4, seed, 0);
        assert!(s.merged_txns > 0);
        if s.merge_splits > 0 || s.merge_salvaged > 0 {
            split_seen = true;
            break;
        }
    }
    assert!(
        split_seen,
        "no chaos seed produced a mid-window conflict; split path untested"
    );
}

/// Static-elision arm: under `Mode::Compiler` the pool's `S_INIT_W` stores
/// elide at compile time, so a recycled block is initialized with no
/// barrier at all while older snapshots run beside it — the mode in which
/// reuse races surfaced (`vacation.rs`'s `expect("still present")`).
#[test]
fn churn_under_compiler_mode_and_chaos_keeps_indices_consistent() {
    let cfg = TxConfig::builder()
        .mode(Mode::Compiler)
        .chaos(ChaosPlan::all(0x5747, 11))
        .build()
        .expect("static churn config");
    let s = churn(cfg, 1, 0x5747, 0);
    assert!(s.commits >= THREADS * ROUNDS as u64);
    assert!(s.writes.elided_static > 0, "no static elision: {s:?}");
}

/// Chaos arm without merging: scheduling faults at every seam may cost
/// retries but never consistency, and neither may a panic in one op in
/// eight — its insert, eviction or purge rolls back with it.
#[test]
fn churn_under_chaos_keeps_indices_consistent() {
    let mut cfg = TxConfig::runtime_tree_nursery();
    cfg.chaos = Some(ChaosPlan::all(0xC4405, 11));
    churn(cfg, 1, 0xC4405, 8);
}
