//! The contention manager and schedule fault injection.
//!
//! The paper's evaluation assumes a "simple exponential backoff contention
//! manager" and benign STAMP contention; this module is what stands between
//! that assumption and adversarial traffic. It owns the whole abort/retry
//! path behind one escalation ladder, whose first rung is the paper's
//! backoff:
//!
//! 1. **Decorrelated-jitter backoff** — the single audited implementation
//!    of the wait the retry loop (`WorkerCtx::txn`) uses
//!    ([`WorkerCtx::backoff_wait`]).
//! 2. **Karma-style patience** — past [`TxConfig::karma_threshold`]
//!    consecutive aborts, the transaction's lock-spin budget grows with its
//!    attempt count. In a mutual-wait cycle the *fresher* transaction
//!    exhausts its (smaller) budget first and aborts, releasing its locks —
//!    so the chronic aborter wins the conflict without any shared karma
//!    table.
//! 3. **Serialization token** — past [`TxConfig::serialize_threshold`]
//!    attempts (or after retrying for `CM_TIME_BUDGET` of wall-clock time),
//!    the transaction takes a global token, drains every in-flight
//!    *writer*, and runs solo among lock holders (invisible readers carry
//!    on beside it). It encounters no foreign locks and no read
//!    invalidations, so it cannot conflict-abort:
//!    its next attempt commits. That is the forward-progress guarantee:
//!    chronic aborters serialize instead of livelocking, and no retry
//!    count is fatal.
//!
//! The token is also the one way to stop the world: a durable runtime's
//! checkpointer takes it and runs the same drain (DESIGN.md §11.3).
//!
//! The soundness argument for the token (why "solo ⇒ commits") and the
//! liveness bound it yields are laid out in DESIGN.md §12; the
//! `liveness_oracle` integration test exercises both under injected
//! adversarial schedules.
//!
//! [`ChaosPlan`] is the schedule-fault-injection seam (the scheduling
//! analogue of the durable layer's `FaultPlan`): a deterministic, seedable
//! source of delay / yield / preemption events at barrier, validation, and
//! commit points, used by the tests to force pathological interleavings
//! that free-running threads rarely produce.
//!
//! [`TxConfig::karma_threshold`]: crate::TxConfig::karma_threshold
//! [`TxConfig::serialize_threshold`]: crate::TxConfig::serialize_threshold

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use txmem::CachePadded;

use crate::worker::{Abort, TxResult, WorkerCtx};

/// Cap of the backoff wait: at most `2^BACKOFF_SHIFT_MAX` spins.
const BACKOFF_SHIFT_MAX: u32 = 14;

/// Wall-clock time a transaction may spend retrying before the ladder
/// serializes it regardless of its attempt count — the starvation bound
/// for long transactions that lose to short ones without racking up
/// attempts quickly.
const CM_TIME_BUDGET: Duration = Duration::from_millis(100);

/// Where a [`ChaosPlan`] may inject a scheduling fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosPoint {
    /// Entry of a full (shared-access) read/write barrier — the window
    /// between observing an orec and acting on it.
    Barrier,
    /// Before read-set validation (commit-time validation and timestamp
    /// extension) — widens the window in which a concurrent writer can
    /// invalidate the read set.
    Validation,
    /// After locks are held, before they publish — stretches the
    /// lock-held window other transactions spin against.
    Commit,
}

/// Deterministic, seedable schedule-fault injection: the scheduling
/// analogue of the durable layer's `FaultPlan`. Each worker derives its own
/// stream from `seed` and its thread id, so a plan reproduces the same
/// injection schedule run after run; at every enabled [`ChaosPoint`] the
/// stream fires with probability `1/period`, choosing a spin delay, a
/// `yield_now`, or a sleep-preemption by `yield_share`/`preempt_share`.
///
/// Injection only ever *delays* execution — it never changes what a
/// transaction reads or writes — so any schedule it produces is one the OS
/// scheduler could have produced; tests that pass under chaos therefore
/// certify behavior, not luck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Base seed; each worker mixes in its thread id.
    pub seed: u64,
    /// Fire on average once per `period` enabled injection points
    /// (`>= 1`; 1 fires at every enabled point).
    pub period: u64,
    /// Inject at [`ChaosPoint::Barrier`].
    pub barrier: bool,
    /// Inject at [`ChaosPoint::Validation`].
    pub validation: bool,
    /// Inject at [`ChaosPoint::Commit`].
    pub commit: bool,
    /// Upper bound for an injected spin delay (`spin_loop` iterations).
    pub max_spins: u32,
    /// Percentage of firings that become a `yield_now` (0..=100).
    pub yield_share: u32,
    /// Percentage of firings that become a sleep-preemption (0..=100;
    /// `yield_share + preempt_share <= 100`, the remainder are spin
    /// delays).
    pub preempt_share: u32,
    /// Sleep length of a preemption firing, in microseconds.
    pub preempt_us: u32,
}

impl ChaosPlan {
    /// A plan covering every injection point with a mixed delay profile:
    /// mostly spin delays, some yields, a few sleep-preemptions — the
    /// profile the liveness oracle runs its adversarial workloads under.
    pub fn all(seed: u64, period: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            period,
            barrier: true,
            validation: true,
            commit: true,
            max_spins: 256,
            yield_share: 25,
            preempt_share: 5,
            preempt_us: 50,
        }
    }

    /// A plan that only stretches the lock-held commit window (the
    /// highest-leverage point for manufacturing convoys).
    pub fn commit_only(seed: u64, period: u64) -> ChaosPlan {
        ChaosPlan {
            barrier: false,
            validation: false,
            ..ChaosPlan::all(seed, period)
        }
    }

    /// Derive the per-worker rng state for thread `tid` (splitmix64 of the
    /// seed/tid mix; never zero, so the xorshift stream cannot lock up).
    pub(crate) fn rng_for(&self, tid: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((tid as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) | 1
    }
}

/// Shared contention-manager state on the runtime: the serialization token
/// and the per-thread active flags its drain protocol scans.
///
/// `token` holds `0` when free, `tid + 1` while thread `tid` serializes,
/// `u64::MAX` during a checkpoint. `active[t]` is set from thread `t`'s
/// first orec lock acquisition (or durable lock-free record) to the end of
/// that (non-token) transaction; readers and captured-only writers never
/// raise it. Both sides of the announce/acquire race use `SeqCst` so the
/// classic Dekker argument applies: a writer stores its flag *then* loads
/// the token, an acquirer CASes the token *then* scans the flags — in the
/// single total order one of them must see the other.
///
/// Per-thread cache-padded flags (not a shared counter) keep writers from
/// bouncing one global cache line across every worker.
pub(crate) struct ContentionState {
    token: CachePadded<AtomicU64>,
    active: Box<[CachePadded<AtomicBool>]>,
}

impl ContentionState {
    pub(crate) fn new(max_threads: usize) -> ContentionState {
        ContentionState {
            token: CachePadded::new(AtomicU64::new(0)),
            active: (0..max_threads)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
        }
    }

    /// Take the token for `holder` if it is free, then drain every other
    /// announced transaction: the one drain of a solo worker and of a
    /// checkpoint. Fails (without waiting) while anyone holds the token.
    fn try_take(&self, holder: u64) -> bool {
        let won = self
            .token
            .compare_exchange(0, holder, Ordering::SeqCst, Ordering::Relaxed);
        if won.is_err() {
            return false;
        }
        // Every announced transaction either commits or aborts in bounded
        // time (lock holders progress, spinners exhaust their budget), and
        // the token keeps new ones from announcing.
        for (t, flag) in self.active.iter().enumerate() {
            while t as u64 + 1 != holder && flag.load(Ordering::SeqCst) {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
        true
    }

    /// Stop the world for a checkpoint: take the token as `u64::MAX` (no
    /// worker's `tid + 1`), waiting out any other holder, and drain.
    pub(crate) fn checkpoint_token(&self) -> CheckpointToken<'_> {
        while !self.try_take(u64::MAX) {
            std::thread::yield_now();
        }
        CheckpointToken(self)
    }
}

/// The token, held by a checkpoint until this guard drops (on unwinding too).
pub(crate) struct CheckpointToken<'a>(&'a ContentionState);

impl Drop for CheckpointToken<'_> {
    fn drop(&mut self) {
        self.0.token.store(0, Ordering::SeqCst);
    }
}

impl WorkerCtx<'_> {
    /// Contention-manager gate at top-level transaction begin: stand down
    /// while the token is held (a solo worker or a checkpoint). A plain
    /// load, nothing announced — an invisible reader holds no orec lock
    /// and bumps no version, so the holder need not drain it; the wait only
    /// spares a writer the abort `cm_announce` would hand it.
    #[inline]
    pub(crate) fn cm_enter(&mut self) {
        while self.rt.cm.token.load(Ordering::Acquire) != 0 && !self.holds_token {
            std::thread::yield_now();
        }
    }

    /// Raise the active flag ahead of the transaction's *first* orec lock
    /// (or a durable lock-free commit's record) — the enterer's half of
    /// the Dekker pair (flag store, then token load). A writer that finds
    /// the token taken holds no lock yet: it retracts the flag and
    /// conflict-aborts, to park at its next `cm_enter`. A token holder
    /// needs no flag — the token itself excludes every other writer.
    #[inline]
    pub(crate) fn cm_announce(&mut self) -> TxResult<()> {
        if self.cm_announced || self.holds_token {
            return Ok(());
        }
        let cm = &self.rt.cm;
        cm.active[self.tid()].store(true, Ordering::SeqCst);
        if cm.token.load(Ordering::SeqCst) != 0 {
            cm.active[self.tid()].store(false, Ordering::Release);
            self.stats.conflict_write_locked += 1;
            return Err(Abort::Conflict);
        }
        self.cm_announced = true;
        Ok(())
    }

    /// Contention-manager exit at every transaction end (commit,
    /// rollback, worker drop): release the token if held, lower the active
    /// flag if raised. `Release` pairs with the drain scan's load (a lowered
    /// flag shows every lock release); nothing after needs store→load order.
    #[inline]
    pub(crate) fn cm_exit(&mut self) {
        if self.holds_token {
            self.holds_token = false;
            self.rt.cm.token.store(0, Ordering::SeqCst);
        }
        if self.cm_announced {
            self.cm_announced = false;
            self.rt.cm.active[self.tid()].store(false, Ordering::Release);
        }
    }

    /// Reset the per-transaction escalation state (new transaction).
    pub(crate) fn cm_reset(&mut self) {
        self.attempts = 0;
        self.backoff_prev = 0;
        self.spin_budget = self.cfg.spin_tries;
        self.cm_deadline = None;
    }

    /// The escalation ladder, run after every conflict abort of a
    /// top-level (physical) transaction. The caller has already rolled
    /// back, so no locks are held and the active flag is clear.
    pub(crate) fn cm_after_abort(&mut self) {
        self.attempts += 1;
        if self.attempts > self.stats.attempts_max {
            self.stats.attempts_max = self.attempts;
        }
        if self.holds_token {
            // Defensive only: a solo transaction cannot conflict-abort
            // (DESIGN.md §12). Retry immediately, keeping the token.
            return;
        }
        // One clock read per abort, none on the first: the second arms the
        // budget (it cannot have passed that instant), later ones compare.
        let over_time = self.attempts >= 2 && {
            let now = Instant::now();
            now >= *self.cm_deadline.get_or_insert(now + CM_TIME_BUDGET)
        };
        if (self.attempts >= self.cfg.serialize_threshold || over_time) && self.cm_acquire_token() {
            // Token held and every other lock holder drained: retry
            // immediately — it cannot fail.
            return;
        }
        if self.attempts >= self.cfg.karma_threshold {
            // Karma tier: patience grows with the attempt count, so in a
            // mutual-wait cycle the fresher (lower-budget) transaction
            // aborts first and releases its locks to the chronic one.
            if self.attempts == self.cfg.karma_threshold {
                self.stats.cm_karma_escalations += 1;
            }
            let over = (self.attempts - self.cfg.karma_threshold).min(63) as u32;
            self.spin_budget = self.cfg.spin_tries.saturating_mul(2 + over);
        }
        self.backoff_wait();
    }

    /// Try to take the global serialization token; on success, drain every
    /// other announced (lock-holding) transaction so the next attempt runs
    /// solo among writers. Fails (without waiting) when another thread is
    /// already serializing or a checkpoint runs — the caller backs off and
    /// stands down at its next `cm_enter`.
    fn cm_acquire_token(&mut self) -> bool {
        if !self.rt.cm.try_take(self.tid() as u64 + 1) {
            return false;
        }
        self.holds_token = true;
        self.stats.cm_serializations += 1;
        true
    }

    /// One decorrelated-jitter backoff wait between retries (one
    /// `backoff_waits` bump per episode).
    ///
    /// Exponential backoff with *decorrelated* jitter: each wait is a
    /// uniform draw from `[BASE, 3 * previous wait]`, capped at
    /// `2^BACKOFF_SHIFT_MAX` spins. Unlike a truncated-exponential
    /// schedule, chronic aborters do not cluster at the cap and re-collide
    /// on the same orec stripes — the next wait is seeded by the *drawn*
    /// wait, not the attempt count, so repeat losers decorrelate from each
    /// other while still ramping up exponentially in expectation.
    pub(crate) fn backoff_wait(&mut self) {
        const BASE: u64 = 16;
        let cap = 1u64 << BACKOFF_SHIFT_MAX;
        let hi = (self.backoff_prev * 3).clamp(BASE + 1, cap);
        let spins = BASE + self.next_rand() % (hi - BASE);
        self.backoff_prev = spins;
        self.stats.backoff_waits += 1;
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if self.attempts > 4 {
            std::thread::yield_now();
        }
    }

    /// Schedule-fault injection hook; a no-op branch unless the runtime
    /// was configured with a [`ChaosPlan`].
    #[inline]
    pub(crate) fn chaos(&mut self, point: ChaosPoint) {
        if self.chaos_on {
            self.chaos_fire(point);
        }
    }

    #[cold]
    fn chaos_fire(&mut self, point: ChaosPoint) {
        let plan = self.cfg.chaos.expect("chaos_on without a plan");
        let enabled = match point {
            ChaosPoint::Barrier => plan.barrier,
            ChaosPoint::Validation => plan.validation,
            ChaosPoint::Commit => plan.commit,
        };
        if !enabled {
            return;
        }
        // xorshift64: deterministic per-worker stream (seeded by
        // ChaosPlan::rng_for), advanced once per enabled point.
        let mut x = self.chaos_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.chaos_rng = x;
        if !x.is_multiple_of(plan.period) {
            return;
        }
        self.stats.chaos_injections += 1;
        let sel = (x / plan.period) % 100;
        if sel < u64::from(plan.preempt_share) {
            std::thread::sleep(Duration::from_micros(u64::from(plan.preempt_us)));
        } else if sel < u64::from(plan.preempt_share + plan.yield_share) {
            std::thread::yield_now();
        } else {
            let spins = (x >> 24) % u64::from(plan.max_spins.max(1));
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDisk, StmRuntime, Tx, TxConfig};
    use std::sync::Arc;
    use txmem::MemConfig;

    fn durable_runtime(disk: &Arc<SimDisk>) -> StmRuntime {
        let cfg = TxConfig {
            durable: true,
            ..TxConfig::runtime_tree_nursery()
        };
        StmRuntime::new_durable(MemConfig::small(), cfg, disk.clone())
    }

    #[test]
    fn chaos_rng_streams_are_distinct_and_stable() {
        let p = ChaosPlan::all(42, 3);
        assert_ne!(p.rng_for(0), p.rng_for(1));
        assert_eq!(p.rng_for(0), p.rng_for(0), "seeding must be deterministic");
        assert_ne!(ChaosPlan::all(43, 3).rng_for(0), p.rng_for(0));
        // The commit-only profile keeps the mixed delay shares.
        let c = ChaosPlan::commit_only(1, 2);
        assert!(c.commit && !c.barrier && !c.validation);
    }

    #[test]
    fn chaos_injection_is_deterministic() {
        // Same plan + same single-threaded workload twice: identical
        // injection counts (the whole point of a seedable schedule).
        let run = || {
            let mut cfg = TxConfig::default();
            cfg.chaos = Some(ChaosPlan::all(7, 2));
            let rt = StmRuntime::new(MemConfig::small(), cfg);
            let a = rt.alloc_global(64);
            let mut w = rt.spawn_worker();
            static S: crate::Site = crate::Site::shared("chaos-det");
            for _ in 0..50 {
                w.txn(|tx| {
                    let v = tx.read(&S, a)?;
                    tx.write(&S, a, v + 1)
                });
            }
            (w.stats.chaos_injections, w.load(a))
        };
        let (i1, v1) = run();
        let (i2, v2) = run();
        assert!(i1 > 0, "period-2 chaos over 100 barriers must fire");
        assert_eq!(i1, i2);
        assert_eq!(v1, v2);
        assert_eq!(v1, 50);
    }

    #[test]
    fn token_serializes_and_releases() {
        // Directly exercise the token protocol single-threaded: acquire,
        // verify the commit path releases it.
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        let a = rt.alloc_global(64);
        let mut w = rt.spawn_worker();
        // Force the ladder to the serialization tier.
        w.attempts = rt.config().serialize_threshold;
        assert!(w.cm_acquire_token());
        assert!(w.holds_token);
        assert_eq!(w.stats.cm_serializations, 1);
        static S: crate::Site = crate::Site::shared("token-commit");
        w.txn(|tx| tx.write(&S, a, 9));
        assert!(!w.holds_token, "commit must release the token");
        assert_eq!(rt.cm.token.load(Ordering::SeqCst), 0);
        // A second acquisition works (the token round-trips).
        assert!(w.cm_acquire_token());
        w.cm_exit();
        assert_eq!(rt.cm.token.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn panicking_token_holder_releases_the_token() {
        // A closure that panics while its worker serializes: unwinding
        // must hand the token back, leave no active flag raised and undo
        // the write, or every later transaction would park forever.
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        let a = rt.alloc_global(64);
        rt.mem().store(a, 5);
        static S: crate::Site = crate::Site::shared("token-panic");
        let panicked = std::thread::scope(|s| {
            let job = s.spawn(|| {
                let mut w = rt.spawn_worker();
                w.attempts = rt.config().serialize_threshold;
                assert!(w.cm_acquire_token());
                w.txn(|tx| -> TxResult<()> {
                    tx.write(&S, a, 6)?;
                    assert!(tx.0.holds_token);
                    panic!("closure panics holding the token");
                })
            });
            job.join().is_err()
        });
        assert!(panicked);
        assert_eq!(rt.cm.token.load(Ordering::SeqCst), 0);
        assert!(rt.cm.active.iter().all(|f| !f.load(Ordering::SeqCst)));
        assert_eq!(rt.mem().load(a), 5, "the write must roll back");
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let v = tx.read(&S, a)?;
            tx.write(&S, a, v + 1)
        });
        assert_eq!((rt.mem().load(a), w.stats.aborts), (6, 0));
    }

    #[test]
    fn caught_panic_rolls_back_and_the_worker_survives() {
        // The worker outlives the panic here, so the rollback cannot wait
        // for its drop: the pre-image must be back and the orec released
        // as soon as the panic leaves `txn`.
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_nursery());
        let a = rt.alloc_global(64);
        rt.mem().store(a, 5);
        static S: crate::Site = crate::Site::shared("caught-panic");
        let rmw = |tx: &mut crate::Tx<'_, '_>| {
            let v = tx.read(&S, a)?;
            tx.write(&S, a, v + 1)
        };
        let mut w = rt.spawn_worker();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.txn(|tx| -> TxResult<()> {
                tx.write(&S, a, 6)?;
                panic!("closure panics mid-transaction");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(rt.mem().load(a), 5, "the uncommitted write must roll back");
        let aborts = std::thread::scope(|s| {
            s.spawn(|| {
                let mut other = rt.spawn_worker();
                other.txn(rmw);
                other.stats.aborts
            })
            .join()
            .unwrap()
        });
        assert_eq!((rt.mem().load(a), aborts), (6, 0));
        w.txn(rmw);
        assert_eq!(rt.mem().load(a), 7, "the same worker runs again");
    }

    #[test]
    fn panic_after_publication_keeps_the_commit() {
        // Once the locks are released at the commit version the writes
        // are visible: a panic in the rest of the commit must leave them
        // in place, release the token and flag, and leave the worker
        // clean for its next transaction.
        use crate::commit::PANIC_IN_COMMIT_TAIL;
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_nursery());
        let a = rt.alloc_global(64);
        rt.mem().store(a, 5);
        static S: crate::Site = crate::Site::shared("tail-panic");
        let rmw = |tx: &mut crate::Tx<'_, '_>| {
            let v = tx.read(&S, a)?;
            tx.write(&S, a, v + 1)
        };
        let mut w = rt.spawn_worker();
        let shared = w.alloc_raw(64);
        let mut fresh = None;
        PANIC_IN_COMMIT_TAIL.with(|p| p.set(true));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.txn(|tx| {
                tx.write(&S, a, 6)?;
                let b = tx.alloc(64)?; // a nursery block
                tx.write(&S, b, 9)?;
                fresh = Some(b);
                tx.free(shared); // a deferred free
                Ok(())
            })
        }));
        assert!(caught.is_err());
        let b = fresh.unwrap();
        assert_eq!(
            (rt.mem().load(a), rt.mem().load(b)),
            (6, 9),
            "the commit stays"
        );
        assert_eq!(w.depth, 0);
        assert!(w.frees.is_empty() && w.allocs.is_empty() && w.undo.is_empty());
        assert_eq!(rt.cm.token.load(Ordering::SeqCst), 0);
        assert!(rt.cm.active.iter().all(|f| !f.load(Ordering::SeqCst)));
        let aborts = std::thread::scope(|s| {
            s.spawn(|| {
                let mut other = rt.spawn_worker();
                other.txn(rmw);
                other.stats.aborts
            })
            .join()
            .unwrap()
        });
        assert_eq!((rt.mem().load(a), aborts), (7, 0));
        w.txn(rmw);
        assert_eq!(rt.mem().load(a), 8, "the same worker runs again");
    }

    #[test]
    fn only_lock_holders_announce() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_nursery());
        let a = rt.alloc_global(64);
        let flag = || rt.cm.active[0].load(Ordering::SeqCst);
        static S: crate::Site = crate::Site::shared("announce");
        let mut w = rt.spawn_worker();
        // Reads and captured stores stay invisible; the first lock announces.
        w.txn(|tx| {
            tx.read(&S, a)?;
            let p = tx.alloc(16)?;
            tx.write(&S, p, 1)?;
            assert!(tx.0.locks.is_empty() && !flag());
            tx.write(&S, a, 2)?;
            assert!(flag());
            Ok(())
        });
        assert!(!flag(), "commit must lower the flag");
        let r = w.txn_result(|tx| {
            tx.write(&S, a, 3)?;
            assert!(flag());
            Err::<(), _>(tx.abort(7))
        });
        assert!(r == Err(7) && !flag(), "rollback must lower the flag");
        // A closure that panics after its first write: unwinding out of
        // the transaction must lower the lazily raised flag.
        let panicked = std::thread::scope(|s| {
            let job = s.spawn(|| {
                rt.spawn_worker().txn(|tx| -> TxResult<()> {
                    tx.write(&S, a.word(1), 4)?;
                    assert!(rt.cm.active[tx.tid()].load(Ordering::SeqCst));
                    panic!("closure panics holding a lock");
                })
            });
            job.join().is_err()
        });
        assert!(panicked && rt.cm.active.iter().all(|f| !f.load(Ordering::SeqCst)));
        assert_eq!(rt.cm.token.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_checkpoint_drains_an_announced_writer_and_parks_a_new_one() {
        let rt = durable_runtime(&SimDisk::new());
        let (a, b) = (rt.alloc_global(64), rt.alloc_global(64));
        static S: crate::Site = crate::Site::shared("ckpt-drain");
        // A writer in flight with one lock: announced.
        let mut w = rt.spawn_worker();
        w.begin_top();
        Tx(&mut w).write(&S, a, 1).unwrap();
        assert!(w.cm_announced);
        let [taken, release, committed] = [0; 3].map(|_| AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _world = rt.cm.checkpoint_token();
                taken.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
            // Once the token is the checkpoint's, it is draining, and the
            // drain cannot end while the writer's flag is up.
            while rt.cm.token.load(Ordering::SeqCst) != u64::MAX {
                std::thread::yield_now();
            }
            assert!(
                !taken.load(Ordering::SeqCst),
                "the checkpoint must wait for the writer"
            );
            assert!(w.try_commit());
            while !taken.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // A writer that begins under the token parks at `cm_enter`:
            // it neither commits nor aborts until the token comes back.
            // (The sleep only gives it time to get there; nothing it could
            // do in that time may commit.)
            let parked = s.spawn(|| {
                let mut w2 = rt.spawn_worker();
                w2.txn(|tx| tx.write(&S, b, 2));
                committed.store(true, Ordering::SeqCst);
                w2.stats.aborts
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(!committed.load(Ordering::SeqCst) && rt.mem().load(b) == 0);
            release.store(true, Ordering::SeqCst);
            assert_eq!(parked.join().unwrap(), 0, "a parked writer never aborts");
        });
        assert_eq!((rt.mem().load(a), rt.mem().load(b)), (1, 2));
    }

    #[test]
    fn a_lock_free_durable_commit_appends_nothing_under_a_checkpoint() {
        let disk = SimDisk::new();
        let rt = durable_runtime(&disk);
        static S: crate::Site = crate::Site::shared("ckpt-lock-free");
        let fill = |tx: &mut Tx<'_, '_>| {
            let p = tx.alloc(64)?;
            tx.write(&S, p, 7)
        };
        // Allocate and fill before the checkpoint takes the token: a
        // captured-only transaction, no lock, no flag.
        let mut w = rt.spawn_worker();
        w.begin_top();
        fill(&mut Tx(&mut w)).unwrap();
        assert!(w.locks.is_empty() && !w.cm_announced);
        let world = rt.cm.checkpoint_token();
        assert!(!w.try_commit(), "the commit must be turned away");
        assert_eq!(disk.append_count(), 0, "no record while the token is held");
        let s = &w.stats;
        assert_eq!((s.aborts, s.commits, s.commits_ro), (1, 0, 0));
        assert_eq!(s.conflict_write_locked, 1);
        assert!(!rt.cm.active[w.tid()].load(Ordering::SeqCst));
        drop(world);
        w.txn(fill);
        assert_eq!(disk.append_count(), 1);
    }

    /// A nested child's write to its parent's stack frame is undo-logged
    /// with no lock, but it is no shared state: a commit whose only undo
    /// entries are stack words neither announces nor appends, so a
    /// checkpoint holding the token does not turn it away.
    #[test]
    fn a_commit_whose_only_undo_is_a_stack_word_does_not_announce() {
        let disk = SimDisk::new();
        let rt = durable_runtime(&disk);
        static S: crate::Site = crate::Site::shared("ckpt-stack");
        let mut w = rt.spawn_worker();
        w.begin_top();
        let mut tx = Tx(&mut w);
        let f = tx.stack_push(2);
        tx.write(&S, f, 1).unwrap();
        tx.nested(|n| n.write(&S, f, 2)).unwrap().unwrap();
        tx.stack_pop(2);
        assert!(w.locks.is_empty() && w.undo.len() == 1);
        let world = rt.cm.checkpoint_token();
        assert!(w.try_commit(), "nothing to log: nothing to announce");
        drop(world);
        assert_eq!((disk.append_count(), disk.log_bytes()), (0, 0));
        assert_eq!((w.stats.aborts, w.stats.durable_flushes), (0, 0));
    }

    #[test]
    fn a_solo_worker_and_a_checkpoint_exclude_each_other() {
        let rt = durable_runtime(&SimDisk::new());
        let mut w = rt.spawn_worker();
        w.attempts = rt.config().serialize_threshold;
        assert!(w.cm_acquire_token());
        assert!(!rt.cm.try_take(u64::MAX), "no checkpoint in a solo episode");
        w.cm_exit();
        let world = rt.cm.checkpoint_token();
        assert!(!w.cm_acquire_token(), "no solo episode in a checkpoint");
        assert!(!rt.cm.try_take(u64::MAX), "no second checkpoint");
        assert_eq!(w.stats.cm_serializations, 1);
        drop(world);
        assert_eq!(rt.cm.token.load(Ordering::SeqCst), 0);
        assert!(w.cm_acquire_token());
        w.cm_exit();
    }

    #[test]
    fn a_panicking_checkpoint_hands_the_token_back() {
        let disk = SimDisk::new();
        let rt = durable_runtime(&disk);
        let cell = rt.alloc_global(8);
        static S: crate::Site = crate::Site::shared("ckpt-panic");
        let mut w = rt.spawn_worker();
        w.txn(|tx| tx.write(&S, cell, 1));
        rt.checkpoint_now();
        disk.corrupt_byte("MANIFEST", 12);
        let panicked = std::panic::catch_unwind(|| rt.checkpoint_now()).is_err();
        assert!(panicked, "a corrupt manifest must fail the checkpoint");
        assert_eq!(rt.cm.token.load(Ordering::SeqCst), 0);
        w.txn(|tx| tx.write(&S, cell, 2));
        assert_eq!((rt.mem().load(cell), w.stats.aborts), (2, 0));
    }
}
