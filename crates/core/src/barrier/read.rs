//! The read barrier (paper Fig. 2): one body per access shape, generic over
//! the [`Pipeline`], so `read::<Runtime<RangeTree>>` etc. compile to
//! straight fast-path code with no dispatch inside.

use txmem::Addr;

use super::fastpath::RunVerdict;
use super::Pipeline;
use crate::site::Site;
use crate::worker::{TxResult, WorkerCtx};

/// The per-word read barrier: the pipeline's elision verdict for a
/// one-word run, then the annotation check, then the full STM read. Reads
/// elide at any captured level, so the classifier never answers
/// [`RunVerdict::Ancestor`] here.
pub(super) fn read<L: Pipeline>(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
) -> TxResult<u64> {
    debug_assert!(w.depth > 0, "read barrier outside transaction");
    if w.cfg.classify {
        w.classify_access(site, addr, false);
    }
    if let RunVerdict::Captured { via, .. } =
        w.run_verdict::<L, false>(site, addr, addr.word(1).raw())
    {
        *via.counter(&mut w.pending.reads) += 1;
        return Ok(w.mem.load_private(addr));
    }
    if w.annotation_hit(addr) {
        w.pending.reads.elided_annotation += 1;
        return Ok(w.mem.load_private(addr));
    }
    w.pending.reads.full += 1;
    w.read_full(addr)
}

/// The ranged read barrier: classify once per homogeneous run, bulk-copy
/// captured runs, stripe-batch shared runs. The contract: the per-word
/// `BarrierDelta` counters move exactly as a loop over [`read`] would move
/// them (the ranged oracle enforces this bit-for-bit), and only the
/// `ranged` telemetry records that the words were processed as runs.
pub(super) fn read_range<L: Pipeline>(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
    dst: &mut [u64],
) -> TxResult<()> {
    if w.cfg.classify || w.cfg.annotations {
        // Classify instrumentation and annotations are defined per word:
        // the whole op degrades to the per-word barrier, so equivalence
        // holds by construction.
        w.pending.ranged.fallbacks += 1;
        for (k, slot) in dst.iter_mut().enumerate() {
            *slot = read::<L>(w, site, addr.word(k as u64))?;
        }
        return Ok(());
    }
    debug_assert!(w.depth > 0, "read barrier outside transaction");
    let limit = addr.word(dst.len() as u64).raw();
    let mut i = 0usize;
    while i < dst.len() {
        let a = addr.word(i as u64);
        let verdict = w.run_verdict::<L, false>(site, a, limit);
        let n = verdict.words(a);
        w.bump_ranged_run(n);
        match verdict {
            RunVerdict::Captured { via, .. } => {
                *via.counter(&mut w.pending.reads) += n as u64;
                w.mem.load_range_private(a, &mut dst[i..i + n]);
            }
            RunVerdict::Ancestor { .. } => unreachable!("reads elide at any level"),
            RunVerdict::Shared { .. } => {
                w.read_full_range(a, &mut dst[i..i + n])?;
                w.pending.reads.full += n as u64;
            }
        }
        i += n;
    }
    Ok(())
}
