//! The global commit clock, TL2-GV5 style: writing commits only load it,
//! and only a reader that meets a newer version moves it.
//!
//! A writing commit locks its whole write set, then loads the clock `c`
//! and publishes at `wv = c + 2` ([`CommitClock::writer_ticket`]). It
//! does not increment the clock, so many commits can publish at `c + 2`
//! while the clock still reads `c`. A transaction that meets a version
//! above its snapshot `rv` extends: it advances the clock to that version
//! with one `fetch_max` when the clock is below it
//! ([`CommitClock::advance_to`]) and revalidates. The clock line is
//! therefore written once per batch of commits that somebody reads, not
//! once per commit.
//!
//! Nobody samples the clock at transaction begin. A worker's snapshot
//! `rv` carries over from the last clock value it *observed*: the value
//! its last commit or full rollback loaded, the value its last extension
//! reached, or 0 when it was spawned. Never `wv`: another writer that
//! loaded the same `c` can still lock and publish at `c + 2` after this
//! one, so `wv` was not a value the clock held. The whole protocol rests
//! on one invariant:
//!
//! > **Every commit published at a version `≤ rv` locked its whole write
//! > set before `rv` was observed.**
//!
//! A commit publishing at `c + 2` loaded `c` after its last lock. At that
//! load the clock was below `c + 2`, and the clock never decreases, so
//! any observation of `c + 2` or more came after the load, and so after
//! the locks.
//!
//! What the invariant buys. TL2's consistency argument never needed a
//! *fresh* `rv`, only an observed one: a transaction reads after its
//! snapshot was observed, so a commit at a version `≤ rv` is either fully
//! visible to it or still locked (the read conflicts), never half
//! visible. A commit at a version `> rv` shows up as a version check
//! failure and an extension. A stale snapshot is therefore still
//! consistent, and since reads always load current memory it still
//! respects real-time order; it only extends more often
//! (`TxStats::extensions`).
//!
//! The remaining properties:
//!
//! * concurrent committers hold encounter-time locks on their (therefore
//!   disjoint) write sets, so publishing two disjoint sets at the same
//!   version is indistinguishable from one bigger commit;
//! * per-orec versions stay strictly monotonic: a lock is taken at a
//!   version `prev ≤ rv` (the acquire extends first), and `rv ≤ c`
//!   because `c` is loaded later, so `wv = c + 2 > c ≥ rv ≥ prev`;
//! * there is no skip-validation shortcut: a committer that finds the
//!   clock still at its `rv` cannot conclude that nobody published, since
//!   another writer may have published at `rv + 2` without moving it.
//!   Every writing commit validates its read set.
//!
//! Besides extensions, two durable-mode rules write the clock
//! (DESIGN.md §11): a commit that frees blocks advances it past its `wv`
//! before the blocks can be reused, and a checkpoint advances it by 2
//! before it reads the snapshot clock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Write-version ticket handed to a committing writer, or to a rollback
/// that releases locks.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ticket {
    /// The clock value loaded: the worker's next snapshot.
    pub seen: u64,
}

impl Ticket {
    /// The version to publish at, `seen + 2` (always even).
    #[inline]
    pub fn wv(self) -> u64 {
        self.seen + 2
    }
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

    /// Current clock value.
    #[inline]
    pub fn read(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// The ticket of a committer: a plain load, no write. Must be called
    /// with the committer's whole write set already locked, which is what
    /// the invariant (module docs) rests on.
    #[inline]
    pub fn writer_ticket(&self) -> Ticket {
        Ticket { seen: self.read() }
    }

    /// Push the clock forward to at least `v` with one `fetch_max` and
    /// return the value it then holds. `v` must be even: odd values would
    /// collide with the orec lock bit.
    pub fn advance_to(&self, v: u64) -> u64 {
        debug_assert_eq!(v % 2, 0, "clock values are always even");
        self.value.fetch_max(v, Ordering::AcqRel).max(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ticket is the clock incremented by two, and the increment is
    /// never stored: uncontended writers share one version.
    #[test]
    fn uncontended_tickets_increment_by_two() {
        let c = CommitClock::new();
        assert_eq!(c.writer_ticket().wv(), 2);
        assert_eq!(c.writer_ticket().wv(), 2);
        assert_eq!(c.read(), 0, "a ticket never writes the clock");
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = CommitClock::new();
        assert_eq!(c.advance_to(10), 10);
        assert_eq!(c.advance_to(4), 10, "never regresses");
        assert_eq!(c.read(), 10);
        assert_eq!(c.writer_ticket().wv(), 12);
    }

    /// Writers draw tickets and readers advance the clock to versions they
    /// met: every ticket lies above every value observed before it was
    /// drawn, and the clock stays even.
    #[test]
    fn hammered_clock_is_monotonic_and_even() {
        let c = std::sync::Arc::new(CommitClock::new());
        std::thread::scope(|s| {
            for th in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    let mut seen = 0;
                    for _ in 0..10_000 {
                        let t = c.writer_ticket();
                        assert_eq!(t.wv() % 2, 0);
                        assert!(t.seen >= seen, "the clock went back");
                        assert!(t.wv() > seen, "a ticket at or below an observed value");
                        seen = if th % 2 == 1 {
                            c.advance_to(t.wv())
                        } else {
                            t.seen
                        };
                    }
                });
            }
        });
        assert!(c.read() > 0);
    }
}
