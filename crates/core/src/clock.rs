//! The global commit clock, with TL2-GV4-style "pass on failure" tickets.
//!
//! The naive clock is a per-commit `fetch_add`: every writing commit owns
//! the clock's cache line for a moment, so N concurrent committers
//! serialize on one line and the clock advances N times. GV4 replaces the
//! unconditional increment with a CAS; a committer whose CAS *loses* a
//! race does not retry — it **adopts the winner's timestamp** as its own
//! write version.
//!
//! Nobody samples the clock at transaction begin. A worker's snapshot
//! `rv` carries over from the last clock value it *observed*: the write
//! version of its last commit or full-rollback ticket, the value its
//! last extension read, or 0 when it was spawned. Transactions read the
//! clock only to extend ([`CommitClock::read`]); writers touch it only
//! through [`CommitClock::writer_ticket`], whose first CAS is
//! `rv → rv + 2` straight from the snapshot, with no separate load. The
//! whole protocol rests on one invariant:
//!
//! > **Every commit published at a version `≤ rv` locked its whole write
//! > set before `rv` was observed.**
//!
//! * A CAS *winner* publishing at `wv` locked before its CAS, and the
//!   clock reached `wv` by that CAS — so before anyone observed `wv` or
//!   more.
//! * An *adopter* publishing at `cur` adopts only the failure value of a
//!   CAS whose expected value was a sample taken *after* its last lock.
//!   `cur` exceeds that sample, so the clock was still below `cur` after
//!   the adopter's locks: any observation of `cur` or more came later.
//!   This is why the failure value of the first CAS (expected `rv`) is
//!   never adopted: the clock may have reached it before the locks.
//!
//! What the invariant buys. TL2's consistency argument never needed a
//! *fresh* `rv`, only an observed one: a transaction reads after its
//! snapshot was observed, so a commit at a version `≤ rv` is either
//! fully visible to it or still locked (the read conflicts) — never half
//! visible. A commit at a version `> rv` shows up as a version check
//! failure and an extension. A stale snapshot is therefore still
//! consistent, and since reads always load current memory it still
//! respects real-time order; it only extends more often
//! (`TxStats::extensions`). In exchange the begin path leaves the clock
//! line alone, and a writer whose snapshot is current draws its ticket
//! in one CAS.
//!
//! The remaining properties:
//!
//! * concurrent committers hold encounter-time locks on their (therefore
//!   disjoint) write sets, so publishing two disjoint sets at the same
//!   version is indistinguishable from one bigger commit;
//! * per-orec versions stay strictly monotonic: every ticket exceeds a
//!   sample taken after all locks were held (`rv` itself when the first
//!   CAS wins), and every pre-lock version is at most that sample;
//! * "clock unchanged since the snapshot ⇒ skip read validation"
//!   survives, argued at `need_validate` in
//!   [`CommitClock::writer_ticket`].
//!
//! Under contention, k simultaneous committers perform one clock
//! transition instead of k — fewer invalidations of the hottest line in
//! the runtime, and a slower-moving clock that triggers fewer snapshot
//! extensions in readers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Write-version ticket handed to a committing writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ticket {
    /// The version to publish the write set at (always even).
    pub wv: u64,
    /// Whether the committer must re-validate its read set. `false` only
    /// when the clock provably did not move since the snapshot was taken.
    pub need_validate: bool,
    /// Telemetry: this ticket reuses a concurrent winner's timestamp.
    pub adopted: bool,
}

/// Global version clock; even values only (bit 0 is the orec lock bit).
#[derive(Debug, Default)]
pub(crate) struct CommitClock {
    value: AtomicU64,
}

impl CommitClock {
    pub fn new() -> CommitClock {
        CommitClock {
            value: AtomicU64::new(0),
        }
    }

    /// Current clock value. Only snapshot extension reads it: a
    /// transaction begins at the snapshot it carries over, and a writer's
    /// ticket starts from that snapshot, not from a load.
    #[inline]
    pub fn read(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Acquire a write version for a committer whose snapshot is `rv`.
    ///
    /// Must be called with the committer's whole write set already locked:
    /// every failure value the CAS chain starts from is then a post-lock
    /// sample, which the adoption argument (module docs) and the
    /// skip-validation shortcut both depend on.
    #[inline]
    pub fn writer_ticket(&self, rv: u64) -> Ticket {
        match self
            .value
            .compare_exchange(rv, rv + 2, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Ticket {
                wv: rv + 2,
                // Winning from `rv` means the clock sat at `rv` for this
                // committer T's whole window, from observing `rv` to this
                // CAS: no CAS winner published inside it. An adopter can
                // publish at a version <= rv without moving the clock, but
                // by the invariant it locked its whole write set before T
                // observed `rv`, so before T's first read. T therefore
                // never read a pre-publish value of that write set (reads
                // of locked orecs never complete): such an adopter
                // serializes entirely before T. A commit W that changes an
                // orec after T read it locked after T observed `rv`, so W
                // publishes above `rv`: its ticket needs the clock past
                // `rv`, which happens only at or after T's CAS. W
                // publishes after T's commit point and serializes after
                // T, so T's read set is valid at `rv + 2` as it stands.
                need_validate: false,
                adopted: false,
            },
            // `cur` was read after every lock was held, but the clock may
            // have reached it before them: a commit may already have
            // published at `cur` on an orec T then locked. Adopting it
            // could republish that orec at an unchanged version. Start
            // the GV4 step from it instead.
            Err(cur) => self.ticket_at(cur, rv),
        }
    }

    /// CAS `observed → observed + 2`; on failure adopt the winner's value,
    /// which is strictly above `observed`. `observed` must be a sample
    /// taken after the caller's last lock. Split from
    /// [`CommitClock::writer_ticket`] so tests can force the adoption path
    /// deterministically with a stale `observed`.
    fn ticket_at(&self, observed: u64, rv: u64) -> Ticket {
        match self.value.compare_exchange(
            observed,
            observed + 2,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ticket {
                wv: observed + 2,
                // The clock moved since `rv` was observed unless the two
                // are equal (only reachable from the tests).
                need_validate: observed != rv,
                adopted: false,
            },
            Err(cur) => Ticket {
                wv: cur,
                need_validate: true,
                adopted: true,
            },
        }
    }

    /// Push the clock forward to at least `v` (used by crash recovery so
    /// that post-recovery commits are versioned strictly after every
    /// replayed record). `v` must be even — odd values would collide with
    /// the orec lock bit.
    pub fn advance_to(&self, v: u64) {
        debug_assert_eq!(v % 2, 0, "clock values are always even");
        self.value.fetch_max(v, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_tickets_increment_by_two() {
        let c = CommitClock::new();
        assert_eq!(c.read(), 0);
        let t = c.writer_ticket(0);
        assert_eq!(
            t,
            Ticket {
                wv: 2,
                need_validate: false,
                adopted: false
            }
        );
        let t = c.writer_ticket(2);
        assert_eq!(t.wv, 4);
        assert!(!t.need_validate && !t.adopted);
        assert_eq!(c.read(), 4);
    }

    #[test]
    fn stale_snapshot_requires_validation() {
        let c = CommitClock::new();
        c.writer_ticket(0); // clock -> 2
        let t = c.writer_ticket(0); // snapshot predates the move
        assert_eq!(t.wv, 4);
        assert!(t.need_validate, "clock moved since snapshot");
        assert!(!t.adopted);
    }

    /// Commits moved the clock from the caller's `rv` to 6 before the
    /// caller locked, so an orec in its write set may already carry 6.
    /// The first CAS fails with 6; the ticket must land above it, never
    /// at it.
    #[test]
    fn stale_snapshot_draws_above_the_clock_it_failed_on() {
        let c = CommitClock::new();
        c.advance_to(6);
        let t = c.writer_ticket(2);
        assert_eq!(
            t,
            Ticket {
                wv: 8,
                need_validate: true,
                adopted: false
            }
        );
        assert_ne!(t.wv, 6, "the first CAS's failure value is never adopted");
        assert_eq!(c.read(), 8);
    }

    /// A snapshot equal to the clock wins its first CAS and skips read
    /// validation: the clock cannot have moved since it was observed.
    #[test]
    fn current_snapshot_wins_first_cas_and_skips_validation() {
        let c = CommitClock::new();
        c.advance_to(6);
        let t = c.writer_ticket(6);
        assert_eq!(
            t,
            Ticket {
                wv: 8,
                need_validate: false,
                adopted: false
            }
        );
        assert_eq!(c.read(), 8);
    }

    #[test]
    fn lost_cas_adopts_winner_timestamp_and_validates() {
        let c = CommitClock::new();
        c.writer_ticket(0); // clock -> 2 (the "winner")
                            // A committer that sampled 0 before the winner's CAS: its own CAS
                            // fails and it adopts the winner's timestamp without advancing the
                            // clock.
        let t = c.ticket_at(0, 0);
        assert_eq!(
            t,
            Ticket {
                wv: 2,
                need_validate: true,
                adopted: true
            }
        );
        assert_eq!(c.read(), 2, "adoption must not advance the clock");
    }

    #[test]
    fn adopted_timestamps_stay_even() {
        let c = CommitClock::new();
        for _ in 0..5 {
            c.writer_ticket(c.read());
        }
        let t = c.ticket_at(0, 0);
        assert!(t.adopted);
        assert_eq!(t.wv % 2, 0);
        assert_eq!(t.wv, 10);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = CommitClock::new();
        c.advance_to(10);
        assert_eq!(c.read(), 10);
        c.advance_to(4); // never regresses
        assert_eq!(c.read(), 10);
        let t = c.writer_ticket(10);
        assert_eq!(t.wv, 12, "tickets continue past the advanced value");
    }

    /// Odd threads pass a fresh clock read as the snapshot, even threads
    /// carry their last ticket over, as a worker does after a commit.
    #[test]
    fn hammered_clock_is_monotonic_and_even() {
        let c = std::sync::Arc::new(CommitClock::new());
        std::thread::scope(|s| {
            for th in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let rv = if th % 2 == 1 { c.read() } else { last };
                        let t = c.writer_ticket(rv);
                        assert_eq!(t.wv % 2, 0);
                        assert!(t.wv >= last, "per-thread tickets never regress");
                        assert!(t.wv > rv, "ticket must exceed the snapshot");
                        last = t.wv;
                    }
                });
            }
        });
        assert!(c.read() > 0);
    }
}
