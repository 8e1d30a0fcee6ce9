//! Cross-thread conflict stress: concurrent transactional transfers over a
//! shared set of accounts must preserve the global sum — under every
//! allocation-log kind, under the baseline and compiler modes, and with
//! closed-nested children that partially abort mid-transfer.
//!
//! This is the regression net for the scalability refactor: 8 workers
//! hammer the GV5 commit clock (writers that publish above it without
//! writing it, extensions that advance it, clock-silent read-only audits)
//! and the page heap (every transfer allocates and frees a scratch block)
//! at once, while the invariant check catches any lost or double-applied
//! update.
//!
//! The opacity guard at the end is the net for the clock's two soundness
//! rules: a snapshot is a clock value the worker observed, never its own
//! `wv`, and every writing commit validates its read set. Two threads
//! under injected schedules run guarded transfers whose write skew and
//! whose torn audits would both show.

use stm::{Abort, CheckScope, LogKind, Mode, Site, StmRuntime, TxConfig};
use txmem::{Addr, MemConfig};

static S_ACCT: Site = Site::shared("stress.account");
static S_SCRATCH: Site = Site::captured_local("stress.scratch");

const THREADS: usize = 8;
const ACCOUNTS: u64 = 24;
const TRANSFERS: usize = 250;
const SEED_BALANCE: u64 = 1_000;

/// xorshift64* with a per-thread seed; deterministic account choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

fn total(rt: &StmRuntime, base: Addr) -> u64 {
    (0..ACCOUNTS).map(|i| rt.mem().load(base.word(i))).sum()
}

/// Run the stress under `cfg`; `nested` routes every credit through a
/// closed-nested child that user-aborts half the time (the partial-abort
/// path), retrying the credit at the outer level when it does.
fn run_stress(cfg: TxConfig, nested: bool) {
    let rt = StmRuntime::new(
        MemConfig {
            max_threads: THREADS,
            stack_words: 1 << 10,
            heap_words: 1 << 18,
        },
        cfg,
    );
    let base = rt.alloc_global(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        rt.mem().store(base.word(i), SEED_BALANCE);
    }

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut rng = Rng(0x9E3779B97F4A7C15 ^ (t as u64 + 1));
                for _ in 0..TRANSFERS {
                    let from = rng.next() % ACCOUNTS;
                    let to = rng.next() % ACCOUNTS;
                    let amount = 1 + rng.next() % 9;
                    let abort_child = rng.next().is_multiple_of(2);
                    w.txn(|tx| {
                        // Captured scratch block: exercises the page
                        // heap and the capture fast paths from every
                        // thread at once.
                        let scratch = tx.alloc(4 * 8)?;
                        tx.write(&S_SCRATCH, scratch, amount)?;
                        let amt = tx.read(&S_SCRATCH, scratch)?;

                        let f = tx.read(&S_ACCT, base.word(from))?;
                        tx.write(&S_ACCT, base.word(from), f.wrapping_sub(amt))?;
                        if nested {
                            let credited = tx.nested(|ntx| {
                                let v = ntx.read(&S_ACCT, base.word(to))?;
                                ntx.write(&S_ACCT, base.word(to), v + amt)?;
                                if abort_child {
                                    Err(Abort::User(7))
                                } else {
                                    Ok(())
                                }
                            })?;
                            if credited.is_err() {
                                // The child rolled back its credit; apply
                                // it at the outer level instead.
                                let v = tx.read(&S_ACCT, base.word(to))?;
                                tx.write(&S_ACCT, base.word(to), v + amt)?;
                            }
                        } else {
                            let v = tx.read(&S_ACCT, base.word(to))?;
                            tx.write(&S_ACCT, base.word(to), v + amt)?;
                        }
                        tx.free(scratch);
                        Ok(())
                    });
                    // Interleave read-only audits: they must stay
                    // clock-silent and still see a consistent sum.
                    if from.is_multiple_of(5) {
                        let sum = w.txn(|tx| {
                            let mut acc = 0u64;
                            for i in 0..ACCOUNTS {
                                acc = acc.wrapping_add(tx.read(&S_ACCT, base.word(i))?);
                            }
                            Ok(acc)
                        });
                        assert_eq!(
                            sum,
                            ACCOUNTS * SEED_BALANCE,
                            "read-only audit saw a torn total"
                        );
                    }
                }
            });
        }
    });

    assert_eq!(
        total(&rt, base),
        ACCOUNTS * SEED_BALANCE,
        "transfers lost or duplicated money"
    );
    let stats = rt.collect_stats();
    assert!(
        stats.commits >= (THREADS * TRANSFERS) as u64,
        "every transfer (and audit) must commit: {stats:?}"
    );
    assert!(
        stats.commits_ro > 0,
        "audits are read-only commits: {stats:?}"
    );
    if nested {
        assert!(
            stats.partial_aborts > 0,
            "nested variant must exercise partial aborts: {stats:?}"
        );
    }
}

fn runtime_cfg(log: LogKind) -> TxConfig {
    TxConfig::with_mode(Mode::Runtime {
        log,
        scope: CheckScope::FULL,
    })
}

#[test]
fn transfers_preserve_sum_baseline() {
    run_stress(TxConfig::default(), false);
}

#[test]
fn transfers_preserve_sum_compiler() {
    run_stress(TxConfig::with_mode(Mode::Compiler), false);
}

#[test]
fn transfers_preserve_sum_tree() {
    run_stress(runtime_cfg(LogKind::Tree), false);
}

#[test]
fn transfers_preserve_sum_array() {
    run_stress(runtime_cfg(LogKind::Array), false);
}

#[test]
fn transfers_preserve_sum_filter() {
    run_stress(runtime_cfg(LogKind::Filter), false);
}

#[test]
fn nested_partial_abort_transfers_preserve_sum_baseline() {
    run_stress(TxConfig::default(), true);
}

#[test]
fn nested_partial_abort_transfers_preserve_sum_tree() {
    run_stress(runtime_cfg(LogKind::Tree), true);
}

#[test]
fn nested_partial_abort_transfers_preserve_sum_array() {
    run_stress(runtime_cfg(LogKind::Array), true);
}

#[test]
fn nested_partial_abort_transfers_preserve_sum_filter() {
    run_stress(runtime_cfg(LogKind::Filter), true);
}

/// Contention-manager regression: many threads hammering one word must
/// still make progress and preserve the count, and the decorrelated-jitter
/// backoff must actually engage (`backoff_waits` telemetry). A mild chaos
/// plan keeps the `aborts > 0` assertion deterministic on single-core
/// hosts, where free-running threads often serialize without conflicting.
#[test]
fn hot_word_contention_backs_off_and_stays_correct() {
    const INCRS: usize = 4_000;
    let cfg = TxConfig {
        chaos: Some(stm::ChaosPlan {
            yield_share: 40,
            preempt_share: 10,
            ..stm::ChaosPlan::all(0xB0B, 4)
        }),
        ..TxConfig::runtime_tree_full()
    };
    let rt = StmRuntime::new(
        MemConfig {
            max_threads: THREADS,
            stack_words: 1 << 10,
            heap_words: 1 << 16,
        },
        cfg,
    );
    let hot = rt.alloc_global(8);
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let rt = &rt;
            let start = &start;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                start.wait();
                for _ in 0..INCRS {
                    w.txn(|tx| {
                        let v = tx.read(&S_ACCT, hot)?;
                        tx.write(&S_ACCT, hot, v + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(rt.mem().load(hot), (THREADS * INCRS) as u64);
    let stats = rt.collect_stats();
    assert_eq!(stats.commits, (THREADS * INCRS) as u64);
    assert!(
        stats.aborts > 0,
        "a single hot word across {THREADS} threads must conflict: {stats:?}"
    );
    assert!(
        stats.backoff_waits > 0,
        "conflicts must engage the backoff contention manager: {stats:?}"
    );
    // Every conflict rollback runs the contention ladder exactly once:
    // it either backs off or (chronic aborters, adaptive policy) grabs
    // the serialization token instead of waiting.
    assert_eq!(
        stats.aborts,
        stats.backoff_waits + stats.cm_serializations,
        "every conflict rollback backs off or escalates exactly once: {stats:?}"
    );
}

// --- Two-thread opacity guard -------------------------------------------

static S_GUARD: Site = Site::shared("stress.guard");

/// Accounts, one per 64-byte line so that no two share a record: 4096
/// accounts over 32768 words.
const GUARD_ACCOUNTS: u64 = 4096;
const LINE_WORDS: u64 = 8;
/// A bank: a guarded pair of accounts and one sink per thread. Transfers
/// stay inside a bank, so its sum is conserved. Bank 0 is the hot one,
/// and the audits sum it.
const BANK: u64 = 4;
const GUARD_OPS: usize = 20_000;

fn account(base: Addr, i: u64) -> Addr {
    base.word(i * LINE_WORDS)
}

/// Two threads move single units between a bank's pair and the thread's
/// own sink, three times in four in the hot bank 0. A transfer reads both
/// halves of its bank's pair, and debits a half only while the pair holds
/// at least 2, so every pair keeps at least 1. Two concurrent debits of
/// one pair's two halves write disjoint accounts, a write skew that only
/// commit-time validation catches, and the pair then reads 0. Every fourth
/// op audits bank 0 read-only; a snapshot that trusted a version it never
/// observed shows up as a torn sum.
///
/// Checked: every committed transfer and audit saw its pair at 1 or more,
/// every audit saw bank 0's exact total, and each account ends at exactly
/// the balance its committed moves give (unit moves commute).
fn run_guard(cfg: TxConfig, nested: bool) {
    let cfg = TxConfig {
        chaos: Some(stm::ChaosPlan::all(0x6A5, 2)),
        ..cfg
    };
    let rt = StmRuntime::new(
        MemConfig {
            max_threads: 2,
            stack_words: 1 << 10,
            heap_words: 1 << 16,
        },
        cfg,
    );
    let base = rt.alloc_global(GUARD_ACCOUNTS * LINE_WORDS * 8);
    for i in 0..GUARD_ACCOUNTS {
        rt.mem().store(account(base, i), 1);
    }
    let start = std::sync::Barrier::new(2);
    let moves: Vec<Vec<(u64, u64)>> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2u64)
            .map(|t| {
                let (rt, start) = (&rt, &start);
                s.spawn(move || {
                    let mut w = rt.spawn_worker();
                    let mut rng = Rng(0xD1CE ^ (t + 1).wrapping_mul(0x9E3779B97F4A7C15));
                    let mut moved = Vec::new();
                    start.wait();
                    for op in 0..GUARD_OPS {
                        let r = rng.next();
                        let bank = if r.is_multiple_of(4) {
                            (r >> 8) % (GUARD_ACCOUNTS / BANK)
                        } else {
                            0
                        };
                        let (pair, half, sink) = (
                            bank * BANK,
                            bank * BANK + (r >> 24) % 2,
                            bank * BANK + 2 + t,
                        );
                        let out_of_pair = (r >> 32).is_multiple_of(2);
                        let (from, to) = if out_of_pair {
                            (half, sink)
                        } else {
                            (sink, half)
                        };
                        let abort_child = (r >> 40).is_multiple_of(2);
                        let (ok, held) = w.txn(|tx| {
                            let x = tx.read(&S_GUARD, account(base, pair))?;
                            let y = tx.read(&S_GUARD, account(base, pair + 1))?;
                            let f = tx.read(&S_GUARD, account(base, from))?;
                            if f == 0 || (out_of_pair && x + y < 2) {
                                return Ok((false, x + y));
                            }
                            tx.write(&S_GUARD, account(base, from), f - 1)?;
                            let credit = |tx: &mut stm::Tx<'_, '_>| {
                                let v = tx.read(&S_GUARD, account(base, to))?;
                                tx.write(&S_GUARD, account(base, to), v + 1)
                            };
                            if nested {
                                let child = tx.nested(|ntx| {
                                    credit(ntx)?;
                                    if abort_child {
                                        Err(Abort::User(3))
                                    } else {
                                        Ok(())
                                    }
                                })?;
                                if child.is_err() {
                                    credit(tx)?;
                                }
                            } else {
                                credit(tx)?;
                            }
                            Ok((true, x + y))
                        });
                        assert!(held >= 1, "thread {t} op {op}: pair {pair} read {held}");
                        if ok {
                            moved.push((from, to));
                        }
                        if op % 4 == 3 {
                            let (sum, held) = w.txn(|tx| {
                                let mut v = [0u64; BANK as usize];
                                for (i, x) in v.iter_mut().enumerate() {
                                    *x = tx.read(&S_GUARD, account(base, i as u64))?;
                                }
                                Ok((v.iter().sum::<u64>(), v[0] + v[1]))
                            });
                            assert_eq!(sum, BANK, "thread {t} op {op}: torn audit of bank 0");
                            assert!(held >= 1, "thread {t} op {op}: audit saw pair 0 at {held}");
                        }
                    }
                    moved
                })
            })
            .collect();
        runs.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Replayed thread by thread, a balance can dip below 0 on the way.
    let mut expect = vec![1u64; GUARD_ACCOUNTS as usize];
    for &(from, to) in moves.iter().flatten() {
        expect[from as usize] = expect[from as usize].wrapping_sub(1);
        expect[to as usize] = expect[to as usize].wrapping_add(1);
    }
    for (i, want) in expect.iter().enumerate() {
        let got = rt.mem().load(account(base, i as u64));
        assert_eq!(got, *want, "account {i}");
    }
    let stats = rt.collect_stats();
    assert!(
        stats.chaos_injections > 0,
        "the plan never fired: {stats:?}"
    );
    assert!(
        moves.iter().all(|m| !m.is_empty()),
        "a thread never moved a unit"
    );
    if nested {
        assert!(stats.partial_aborts > 0, "no child aborted: {stats:?}");
    }
}

#[test]
fn opacity_guard_baseline() {
    run_guard(TxConfig::default(), false);
}

#[test]
fn opacity_guard_tree_nursery() {
    run_guard(TxConfig::runtime_tree_nursery(), false);
}

#[test]
fn opacity_guard_nested_partial_abort_baseline() {
    run_guard(TxConfig::default(), true);
}

#[test]
fn opacity_guard_nested_partial_abort_tree_nursery() {
    run_guard(TxConfig::runtime_tree_nursery(), true);
}
