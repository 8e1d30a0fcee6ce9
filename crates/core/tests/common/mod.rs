//! Helpers shared by the differential oracles (`ranged_oracle`,
//! `typed_oracle`, `nursery_oracle`, `crash_oracle`).
//!
//! Each oracle compares two executions that must be *observably
//! identical*; these helpers build the comparable statistics signatures,
//! zeroing exactly the telemetry families the configurations under test
//! legitimately differ in.
//!
//! Not every oracle uses every helper, hence:
#![allow(dead_code)]

use stm::TxStats;

/// A telemetry family that two otherwise-equivalent executions are
/// allowed to differ in, and which [`redacted_debug`] therefore zeroes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Redact {
    /// `ranged_*`: batching shape of the ranged entry points (per-word
    /// vs. span processing is an implementation detail).
    Ranged,
    /// `durable_*`: redo-log volume, skip counts, and flush counts (a
    /// durable run logs, a transient run doesn't; nothing else may
    /// change).
    Durable,
    /// Contention-manager telemetry: conflict-cause breakdowns, escalation
    /// counters, chaos injections, and the backoff/latency histograms.
    /// These depend on physical timing (who wins a lock race, how long a
    /// retry chain takes on the wall clock), so two logically identical
    /// executions may differ. `backoff_waits` is deliberately *not* here:
    /// single-threaded oracles expect zero backoffs on both sides.
    Contention,
}

/// Debug-format the full statistics with the given telemetry families
/// zeroed. With no redactions this is the strictest signature: every
/// counter must match bit-for-bit.
pub fn redacted_debug(stats: &TxStats, redact: &[Redact]) -> String {
    let mut s = *stats;
    for r in redact {
        match r {
            Redact::Ranged => {
                s.ranged_reads = 0;
                s.ranged_writes = 0;
                s.ranged_spans = 0;
                s.ranged_fallbacks = 0;
            }
            Redact::Durable => {
                s.durable_words = 0;
                s.durable_skipped = 0;
                s.durable_flushes = 0;
            }
            Redact::Contention => {
                s.conflict_read_locked = 0;
                s.conflict_write_locked = 0;
                s.conflict_validation = 0;
                s.cm_karma_escalations = 0;
                s.cm_serializations = 0;
                s.attempts_max = 0;
                s.chaos_injections = 0;
                s.latency_hist = [0; stm::LATENCY_BUCKETS];
            }
        }
    }
    format!("{s:?}")
}

/// The logical-outcome signature with the full per-direction barrier
/// breakdowns: the counters that describe *what the program did*
/// (commit/abort/alloc/free totals and every access's capture verdict),
/// independent of how the runtime processed it.
pub fn logical_line_with_barriers(s: &TxStats) -> String {
    format!(
        "commits={} aborts={} user={} partial={} allocs={} frees={} \
         reads={:?} writes={:?}",
        s.commits,
        s.aborts,
        s.user_aborts,
        s.partial_aborts,
        s.tx_allocs,
        s.tx_frees,
        s.reads,
        s.writes,
    )
}
