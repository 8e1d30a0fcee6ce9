//! Liveness oracle for the contention manager (`stm::contention`,
//! DESIGN.md §12): adversarial workloads under schedule fault injection
//! ([`ChaosPlan`]) must make forward progress with a *bounded* worst-case
//! retry chain — no livelock, no starvation — while preserving their
//! memory invariants exactly, and every abort must take exactly one rung
//! of the ladder.
//!
//! Three workload families, chosen to starve differently:
//!
//! * **hot-word counters** — every thread increments the same few words;
//!   pure write-write conflict pressure on a handful of orecs;
//! * **skewed transfers** — zipf-ish account selection, so a couple of
//!   accounts absorb most traffic while the tail keeps the read sets wide;
//! * **long reader vs. short writers** — a full-table read-only scan racing
//!   short writers; classic starvation shape for invisible readers (the
//!   scan keeps failing validation until the ladder escalates for it).
//!
//! The hot-word and transfer families also run with a seeded 1-in-N of
//! their closures panicking after the first shared write: the panic must
//! roll its transaction back and leave the same worker running.
//!
//! Plus the semantic-footprint differential: single-threaded, the chaos
//! hooks must be *invisible* — identical memory and identical redacted
//! statistics with chaos off and on.

use proptest::prelude::*;
use stm::{Abort, ChaosPlan, CheckScope, LogKind, Mode, Site, StmRuntime, TxConfig};
use txmem::MemConfig;

mod common;

static S_HOT: Site = Site::shared("live.hot");
static S_ACCT: Site = Site::shared("live.account");
static S_SCRATCH: Site = Site::captured_local("live.scratch");

/// xorshift64* (same generator the runtime uses for backoff jitter).
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

/// Seeded panic injection, drawn per op and local to these tests:
/// `Some((seed, n))` makes about one closure in `n` panic.
type Panics = Option<(u64, u64)>;

/// One thread's panic draws.
struct Doom(Option<(Rng, u64)>);

impl Doom {
    fn new(panics: Panics, thread: usize) -> Doom {
        Doom(panics.map(|(seed, n)| (Rng(seed.rotate_left(thread as u32 * 8) | 1), n)))
    }

    /// Whether the next op's closure panics.
    fn next(&mut self) -> bool {
        self.0
            .as_mut()
            .is_some_and(|(rng, n)| rng.next().is_multiple_of(*n))
    }
}

/// Run `op` and say whether it unwound. The injected panic resumes
/// unwinding directly, skipping the panic hook, so the output stays quiet.
fn panicked(op: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).is_err()
}

fn inject(doomed: bool) {
    if doomed {
        std::panic::resume_unwind(Box::new("injected closure panic"));
    }
}

/// After a run with `panics` that lost `lost` of its `ops` closures to
/// them: the injection fired, and every other op committed — each worker
/// kept running after its panics.
fn check_survivors(stats: &stm::TxStats, panics: Panics, ops: u64, lost: u64) {
    assert_eq!(panics.is_some(), lost > 0, "injection must fire: {stats:?}");
    assert_eq!(stats.commits, ops - lost, "{lost} panicked: {stats:?}");
}

fn mem_cfg(threads: usize) -> MemConfig {
    MemConfig {
        max_threads: threads,
        stack_words: 1 << 10,
        heap_words: 1 << 16,
    }
}

/// The liveness bound the ladder guarantees (see DESIGN.md §12): a
/// transaction escalates to the serialization token after
/// `serialize_threshold` attempts, and while it queues for the token each
/// other thread can finish (or abort) at most a couple of in-flight
/// attempts per token episode. `8 × threads` is a deliberately loose
/// constant multiple of that argument — loose enough for noisy schedules,
/// tight enough that a livelock (tens of thousands of retries) fails.
fn attempt_bound(cfg: &TxConfig, threads: usize) -> u64 {
    cfg.serialize_threshold + 8 * threads as u64
}

fn ladder_cfg(chaos: Option<ChaosPlan>) -> TxConfig {
    let mut b = TxConfig::builder()
        .mode(Mode::Runtime {
            log: LogKind::Tree,
            scope: CheckScope::FULL,
        })
        // Aggressively low thresholds: the point of the oracle is to drive
        // the full ladder (karma, then token), not to avoid it.
        .spin_tries(4)
        .karma_threshold(3)
        .serialize_threshold(10);
    if let Some(plan) = chaos {
        b = b.chaos(plan);
    }
    b.build().unwrap()
}

/// Hot-word counters: `threads` workers × `incrs` increments over `words`
/// shared words, `panics` of them unwinding after their write. Returns
/// merged stats after asserting the exact sums.
fn run_hot_words(
    cfg: &TxConfig,
    threads: usize,
    incrs: usize,
    words: u64,
    panics: Panics,
) -> stm::TxStats {
    let rt = StmRuntime::new(mem_cfg(threads), *cfg);
    let base = rt.alloc_global(words * 8);
    let start = std::sync::Barrier::new(threads);
    let lost = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (rt, start, lost) = (&rt, &start, &lost);
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut rng = Rng(0xA076_1D64_78BD_642F ^ (t as u64 + 1));
                let mut doom = Doom::new(panics, t);
                start.wait();
                for _ in 0..incrs {
                    let word = rng.next() % words;
                    let doomed = doom.next();
                    if panicked(|| {
                        w.txn(|tx| {
                            let v = tx.read(&S_HOT, base.word(word))?;
                            tx.write(&S_HOT, base.word(word), v + 1)?;
                            inject(doomed);
                            Ok(())
                        })
                    }) {
                        lost.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let (ops, lost) = ((threads * incrs) as u64, lost.into_inner());
    let total: u64 = (0..words).map(|i| rt.mem().load(base.word(i))).sum();
    assert_eq!(total, ops - lost, "increments lost or doubled");
    let stats = rt.collect_stats();
    check_survivors(&stats, panics, ops, lost);
    stats
}

/// Skewed transfers: account indices drawn geometrically (`trailing_zeros`
/// of a uniform draw), so account 0 takes ~half the traffic — the zipf-like
/// skew that makes contention chronic for a few orecs while the long tail
/// keeps read sets honest, `panics` of the transfers unwinding after their
/// debit. Asserts the conserved total.
fn run_skewed_transfers(
    cfg: &TxConfig,
    threads: usize,
    transfers: usize,
    panics: Panics,
) -> stm::TxStats {
    const ACCOUNTS: u64 = 16;
    const SEED_BALANCE: u64 = 1_000;
    let rt = StmRuntime::new(mem_cfg(threads), *cfg);
    let base = rt.alloc_global(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        rt.mem().store(base.word(i), SEED_BALANCE);
    }
    let start = std::sync::Barrier::new(threads);
    let lost = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (rt, start, lost) = (&rt, &start, &lost);
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut rng = Rng(0x2B99_4D7A_93F1_6E05 ^ (t as u64 + 1));
                let mut doom = Doom::new(panics, t);
                start.wait();
                for _ in 0..transfers {
                    let from = (rng.next().trailing_zeros() as u64).min(ACCOUNTS - 1);
                    let to = (rng.next().trailing_zeros() as u64).min(ACCOUNTS - 1);
                    let amt = 1 + rng.next() % 9;
                    let doomed = doom.next();
                    if panicked(|| {
                        w.txn(|tx| {
                            let scratch = tx.alloc(8)?;
                            tx.write(&S_SCRATCH, scratch, amt)?;
                            let a = tx.read(&S_SCRATCH, scratch)?;
                            let f = tx.read(&S_ACCT, base.word(from))?;
                            tx.write(&S_ACCT, base.word(from), f.wrapping_sub(a))?;
                            inject(doomed);
                            let v = tx.read(&S_ACCT, base.word(to))?;
                            tx.write(&S_ACCT, base.word(to), v + a)?;
                            tx.free(scratch);
                            Ok(())
                        })
                    }) {
                        lost.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let total: u64 = (0..ACCOUNTS).map(|i| rt.mem().load(base.word(i))).sum();
    assert_eq!(total, ACCOUNTS * SEED_BALANCE, "transfers lost money");
    let stats = rt.collect_stats();
    check_survivors(
        &stats,
        panics,
        (threads * transfers) as u64,
        lost.into_inner(),
    );
    stats
}

/// Long reader vs. short writers: thread 0 repeatedly scans the whole
/// table read-only (its validation keeps failing while writers churn);
/// the rest hammer single-word updates. The reader finishing all its
/// scans with consistent sums *is* the liveness property — under a plain
/// backoff CM this shape can starve the reader indefinitely.
fn run_long_reader(cfg: &TxConfig, threads: usize, scans: usize) -> stm::TxStats {
    const WORDS: u64 = 32;
    const WRITES: usize = 600;
    let rt = StmRuntime::new(mem_cfg(threads), *cfg);
    let base = rt.alloc_global(WORDS * 8);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (rt, start, stop) = (&rt, &start, &stop);
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                start.wait();
                if t == 0 {
                    for _ in 0..scans {
                        // A full-table scan sees either a consistent
                        // snapshot or nothing: every word is bumped by +1
                        // per writer txn in balanced pairs, so any torn
                        // read breaks the parity check below.
                        let (sum, first) = w.txn(|tx| {
                            let mut acc = 0u64;
                            for i in 0..WORDS {
                                acc = acc.wrapping_add(tx.read(&S_HOT, base.word(i))?);
                            }
                            let first = tx.read(&S_HOT, base.word(0))?;
                            Ok((acc, first))
                        });
                        assert!(sum >= first, "scan saw torn state");
                    }
                    stop.store(true, std::sync::atomic::Ordering::Release);
                } else {
                    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (t as u64 + 1));
                    let mut n = 0usize;
                    // Keep churning until the reader finishes (bounded by
                    // a floor so writer stats are non-trivial even if the
                    // reader is fast).
                    while n < WRITES || !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let word = rng.next() % WORDS;
                        w.txn(|tx| {
                            let v = tx.read(&S_HOT, base.word(word))?;
                            tx.write(&S_HOT, base.word(word), v + 1)?;
                            Ok(())
                        });
                        n += 1;
                    }
                }
            });
        }
    });
    rt.collect_stats()
}

/// Spin (yielding) until `ready()`; a yield budget rather than a wall-clock
/// one, so a protocol that parks the party being waited for fails the test
/// instead of hanging it.
fn wait_for(what: &str, ready: impl Fn() -> bool) {
    let mut yields = 0u64;
    while !ready() {
        yields += 1;
        assert!(yields < 20_000_000, "stalled waiting for {what}");
        std::thread::yield_now();
    }
}

/// Readers beside a serializing writer. Every `episode` the writer (worker
/// 0) first waits until each of the `readers` scanners is *inside* a
/// read-only transaction, half-way through the table and holding there;
/// then drives itself to the serialization tier (its closure returns
/// `Abort::Conflict` before writing anything, `serialize_threshold` times),
/// so its next invocation is the solo attempt, token in hand. The scanners
/// only move on once that attempt has committed: a token holder that had to
/// drain in-flight readers would wait for them forever. Every committed
/// scan must sum to the conserved total, and the holder must commit on its
/// first solo attempt.
fn run_readers_beside_token(cfg: &TxConfig, readers: usize, episodes: u64) -> stm::TxStats {
    use std::sync::atomic::{AtomicU64, Ordering};
    const ACCOUNTS: u64 = 16;
    const SEED_BALANCE: u64 = 1_000;
    let rt = StmRuntime::new(mem_cfg(readers + 1), *cfg);
    let base = rt.alloc_global(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        rt.mem().store(base.word(i), SEED_BALANCE);
    }
    // `committed` counts the writer's finished episodes; `holding[r]` is the
    // episode (+1) reader `r` is holding mid-scan for.
    let committed = AtomicU64::new(0);
    let holding: Vec<AtomicU64> = (0..readers).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for mine in &holding {
            let (rt, committed) = (&rt, &committed);
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                while committed.load(Ordering::Acquire) < episodes {
                    // Hold once per scan, not per retry: a scan the writer's
                    // commit invalidated re-runs straight through.
                    let mut held = false;
                    let sum = w.txn(|tx| {
                        let mut acc = 0u64;
                        for i in 0..ACCOUNTS {
                            if i == ACCOUNTS / 2 && !std::mem::replace(&mut held, true) {
                                let e = committed.load(Ordering::Acquire);
                                mine.store(e + 1, Ordering::Release);
                                wait_for("the token holder's commit", || {
                                    committed.load(Ordering::Acquire) > e
                                });
                            }
                            acc += tx.read(&S_ACCT, base.word(i))?;
                        }
                        Ok(acc)
                    });
                    assert_eq!(sum, ACCOUNTS * SEED_BALANCE, "scan saw a torn snapshot");
                }
            });
        }
        let mut w = rt.spawn_worker();
        let mut rng = Rng(0x2B99_4D7A_93F1_6E05);
        for e in 0..episodes {
            wait_for("every reader to be mid-scan", || {
                holding.iter().all(|h| h.load(Ordering::Acquire) == e + 1)
            });
            let (from, to) = (rng.next() % ACCOUNTS, rng.next() % ACCOUNTS);
            let mut invocation = 0u64;
            w.txn(|tx| {
                invocation += 1;
                let f = tx.read(&S_ACCT, base.word(from))?;
                if invocation <= cfg.serialize_threshold {
                    return Err(Abort::Conflict); // climb the ladder, lock-free
                }
                tx.write(&S_ACCT, base.word(from), f.wrapping_sub(1))?;
                let v = tx.read(&S_ACCT, base.word(to))?;
                tx.write(&S_ACCT, base.word(to), v.wrapping_add(1))
            });
            assert_eq!(
                invocation,
                cfg.serialize_threshold + 1,
                "the token holder must commit on its first solo attempt"
            );
            committed.store(e + 1, Ordering::Release);
        }
    });
    let total: u64 = (0..ACCOUNTS).map(|i| rt.mem().load(base.word(i))).sum();
    assert_eq!(total, ACCOUNTS * SEED_BALANCE, "transfers lost money");
    rt.collect_stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Reader-heavy arm: three scanners sit mid-transaction through every
    // one of a writer's token episodes, under chaos; the episode never
    // waits for them and their snapshots stay consistent.
    #[test]
    fn chaotic_readers_run_beside_the_token_holder(seed in 1u64..u64::MAX, period in 2u64..6) {
        let cfg = ladder_cfg(Some(ChaosPlan::all(seed, period)));
        let stats = run_readers_beside_token(&cfg, 3, 12);
        prop_assert_eq!(stats.cm_serializations, 12, "one token episode each: {:?}", stats);
        prop_assert!(
            stats.attempts_max <= attempt_bound(&cfg, 4),
            "retry chain exceeded the liveness bound: {stats:?}"
        );
        prop_assert!(stats.commits_ro >= 3 * 12, "scans must commit read-only: {stats:?}");
    }

    // Hot words under chaos: random seeds and injection periods, exact
    // sums, and a worst-case retry chain bounded by the ladder argument.
    #[test]
    fn chaotic_hot_words_stay_live(seed in 1u64..u64::MAX, period in 2u64..6) {
        let cfg = ladder_cfg(Some(ChaosPlan::all(seed, period)));
        let stats = run_hot_words(&cfg, 4, 150, 2, None);
        prop_assert!(stats.chaos_injections > 0, "chaos must actually fire: {stats:?}");
        prop_assert!(
            stats.attempts_max <= attempt_bound(&cfg, 4),
            "retry chain exceeded the liveness bound: {stats:?}"
        );
    }

    // Skewed transfers under chaos: conservation plus the liveness bound.
    #[test]
    fn chaotic_skewed_transfers_stay_live(seed in 1u64..u64::MAX, period in 2u64..6) {
        let cfg = ladder_cfg(Some(ChaosPlan::all(seed, period)));
        let stats = run_skewed_transfers(&cfg, 4, 120, None);
        prop_assert!(
            stats.attempts_max <= attempt_bound(&cfg, 4),
            "retry chain exceeded the liveness bound: {stats:?}"
        );
    }

    // Both shapes again with a seeded 1-in-N of the closures panicking
    // after their first shared write: every panic rolls back (exact sums,
    // conserved money), its worker commits every other op, and the
    // retry chains stay inside the liveness bound.
    #[test]
    fn chaotic_panics_roll_back_and_workers_run_on(
        seed in 1u64..u64::MAX,
        period in 2u64..6,
        one_in in 3u64..12,
    ) {
        let cfg = ladder_cfg(Some(ChaosPlan::all(seed, period)));
        let hot = run_hot_words(&cfg, 4, 150, 2, Some((seed, one_in)));
        let skewed = run_skewed_transfers(&cfg, 4, 120, Some((seed, one_in)));
        for stats in [hot, skewed] {
            prop_assert!(
                stats.attempts_max <= attempt_bound(&cfg, 4),
                "retry chain exceeded the liveness bound: {stats:?}"
            );
        }
    }

    // The starvation-prone shape: the long reader must complete all scans
    // within the bound even with commit-point chaos favoring the writers.
    #[test]
    fn chaotic_long_reader_is_not_starved(seed in 1u64..u64::MAX, period in 2u64..6) {
        let cfg = ladder_cfg(Some(ChaosPlan::commit_only(seed, period)));
        let stats = run_long_reader(&cfg, 4, 25);
        prop_assert!(
            stats.attempts_max <= attempt_bound(&cfg, 4),
            "a transaction starved past the liveness bound: {stats:?}"
        );
        prop_assert!(stats.commits_ro > 0, "scans must commit read-only: {stats:?}");
    }
}

/// A preemption-heavy chaos profile for tests that *assert* conflicts
/// happen. On a single-core host the OS runs threads to completion far
/// more often than not, so uninstrumented hot-word loops can finish with
/// zero aborts; frequent injected sleeps and yields force mid-transaction
/// preemption regardless of core count, making the conflict assertions
/// deterministic instead of schedule-lucky.
fn preemptive_chaos(seed: u64) -> ChaosPlan {
    ChaosPlan {
        yield_share: 40,
        preempt_share: 30,
        preempt_us: 50,
        ..ChaosPlan::all(seed, 2)
    }
}

/// The ladder's accounting identity, checked on real contended runs of
/// all three shapes: every rollback takes exactly one rung — a backoff
/// wait or a successful token acquisition — never both, never neither.
#[test]
fn ladder_accounts_for_every_abort() {
    for seed in [0xBADC_0FFE, 7, 99] {
        let cfg = ladder_cfg(Some(preemptive_chaos(seed)));
        let hot = run_hot_words(&cfg, 4, 400, 1, None);
        assert!(hot.aborts > 0, "one hot word must conflict: {hot:?}");
        let skewed = run_skewed_transfers(&cfg, 4, 200, None);
        let long = run_long_reader(&ladder_cfg(Some(ChaosPlan::commit_only(seed, 2))), 4, 25);
        for (shape, stats) in [("hot-word", hot), ("skewed", skewed), ("long-reader", long)] {
            assert_eq!(
                stats.aborts,
                stats.backoff_waits + stats.cm_serializations,
                "{shape}, seed {seed:#x}: ladder accounting broken: {stats:?}"
            );
        }
    }
}

/// Semantic-footprint differential: single-threaded, a fixed op script
/// must produce bit-identical memory and identical redacted statistics
/// with chaos off and on. The chaos hooks may only ever *delay*
/// execution.
#[test]
fn chaos_has_no_semantic_footprint() {
    fn run_script(chaos: Option<ChaosPlan>) -> (Vec<u64>, String) {
        const WORDS: u64 = 8;
        let mut b = TxConfig::builder().mode(Mode::Runtime {
            log: LogKind::Array,
            scope: CheckScope::FULL,
        });
        if let Some(plan) = chaos {
            b = b.chaos(plan);
        }
        let rt = StmRuntime::new(mem_cfg(1), b.build().unwrap());
        let base = rt.alloc_global(WORDS * 8);
        let mut w = rt.spawn_worker();
        let mut rng = Rng(0xD6E8_FEB8_6659_FD93);
        for _ in 0..60 {
            let i = rng.next() % WORDS;
            let j = rng.next() % WORDS;
            w.txn(|tx| {
                let scratch = tx.alloc(8)?;
                tx.write(&S_SCRATCH, scratch, i + 1)?;
                let v = tx.read(&S_HOT, base.word(i))?;
                let s = tx.read(&S_SCRATCH, scratch)?;
                tx.write(&S_HOT, base.word(j), v ^ s)?;
                tx.free(scratch);
                Ok(())
            });
        }
        drop(w);
        let mem: Vec<u64> = (0..WORDS).map(|k| rt.mem().load(base.word(k))).collect();
        let stats = common::redacted_debug(&rt.collect_stats(), &[common::Redact::Contention]);
        (mem, stats)
    }

    let baseline = run_script(None);
    let chaotic = run_script(Some(ChaosPlan::all(11, 3)));
    assert_eq!(chaotic.0, baseline.0, "memory diverged under chaos");
    assert_eq!(chaotic.1, baseline.1, "stats diverged under chaos");
}

/// Regression: a nested child that writes a word the parent already read,
/// then user-aborts, must not poison the parent's read set. The
/// anti-ABA rule releases the child's locks at a *fresh* clock ticket; if
/// the surviving parent read entries for those orecs are not re-stamped
/// to the republished version, version-equality validation rejects them
/// on every subsequent attempt — a deterministic single-thread
/// self-livelock (the retry replays the identical nested abort). The
/// batch-window variant lives in `batch_tests`; this covers the plain
/// `nested()` path through `partial_rollback`.
#[test]
fn nested_partial_abort_does_not_poison_parent_reads() {
    for log in LogKind::ALL {
        let cfg = TxConfig::builder()
            .mode(Mode::Runtime {
                log,
                scope: CheckScope::FULL,
            })
            .build()
            .unwrap();
        let rt = StmRuntime::new(mem_cfg(1), cfg);
        let a = rt.alloc_global(8);
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let v = tx.read(&S_HOT, a)?;
            let child = tx.nested(|t| {
                t.write(&S_HOT, a, 999)?;
                Err::<(), _>(Abort::User(1))
            })?;
            assert_eq!(child, Err(1), "user abort must surface as Err(code)");
            tx.write(&S_HOT, a, v + 1)?;
            Ok(())
        });
        drop(w);
        assert_eq!(rt.mem().load(a), 1, "{log:?}: child write must be undone");
        let stats = rt.collect_stats();
        assert_eq!(stats.commits, 1, "{log:?}: {stats:?}");
        assert_eq!(stats.partial_aborts, 1, "{log:?}: {stats:?}");
        assert_eq!(
            stats.aborts, 0,
            "a single thread must never conflict with itself ({log:?}): {stats:?}"
        );
    }
}

/// Satellite: the 8-thread hot-word starvation stress, for every capture
/// log kind × nursery on/off. Thresholds are floored so the serialization
/// token *must* engage; the fixed-sum invariant proves the token holder's
/// solo run and the drained waiters never lose an update.
fn run_starvation(log: LogKind, nursery: bool) {
    const THREADS: usize = 8;
    const INCRS: usize = 400;
    let cfg = TxConfig::builder()
        .mode(Mode::Runtime {
            log,
            scope: CheckScope::FULL,
        })
        .nursery(nursery)
        .spin_tries(2)
        .karma_threshold(1)
        .serialize_threshold(2)
        .chaos(preemptive_chaos(
            0x5EED ^ (nursery as u64) << 8 ^ log as u64,
        ))
        .build()
        .unwrap();
    let rt = StmRuntime::new(mem_cfg(THREADS), cfg);
    let hot = rt.alloc_global(8);
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (rt, start) = (&rt, &start);
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                start.wait();
                for k in 0..INCRS {
                    w.txn(|tx| {
                        // A nursery-eligible scratch allocation per txn
                        // keeps the capture log in play on the abort path.
                        let scratch = tx.alloc(8)?;
                        tx.write(&S_SCRATCH, scratch, (t * INCRS + k) as u64)?;
                        let v = tx.read(&S_HOT, hot)?;
                        tx.write(&S_HOT, hot, v + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(
        rt.mem().load(hot),
        (THREADS * INCRS) as u64,
        "token serialization lost increments ({log:?}, nursery={nursery})"
    );
    let stats = rt.collect_stats();
    assert!(
        stats.aborts > 0,
        "8 threads on one word must conflict: {stats:?}"
    );
    assert!(
        stats.cm_serializations > 0,
        "serialize_threshold=2 under chronic conflict must engage the \
         token ({log:?}, nursery={nursery}): {stats:?}"
    );
    assert!(
        stats.attempts_max <= attempt_bound(&cfg, THREADS),
        "starvation bound violated ({log:?}, nursery={nursery}): {stats:?}"
    );
    if nursery {
        assert!(stats.nursery_hits > 0, "nursery must engage: {stats:?}");
    }
}

#[test]
fn starvation_stress_all_log_kinds() {
    for log in LogKind::ALL {
        run_starvation(log, false);
        run_starvation(log, true);
    }
}
