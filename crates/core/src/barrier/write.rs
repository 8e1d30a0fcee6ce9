//! The write barrier: same layering as `read`, plus the ancestor-capture
//! case: a write to memory captured by an *enclosing* transaction is
//! performed in place without locking, but needs an undo entry so a
//! partial abort of the current level restores it (paper §2.2.1).

use txmem::Addr;

use super::fastpath::RunVerdict;
use super::Pipeline;
use crate::site::Site;
use crate::worker::{TxResult, UndoEntry, WorkerCtx};

/// The per-word write barrier: the pipeline's elision verdict for a
/// one-word run (a current-level hit stores in place, an ancestor hit is
/// undo-logged first), then the annotation check, then the full STM write.
pub(super) fn write<L: Pipeline>(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
    val: u64,
) -> TxResult<()> {
    debug_assert!(w.depth > 0, "write barrier outside transaction");
    if w.cfg.classify {
        w.classify_access(site, addr, true);
    }
    match w.run_verdict::<L, true>(site, addr, addr.word(1).raw()) {
        RunVerdict::Captured { via, .. } => *via.counter(&mut w.pending.writes) += 1,
        RunVerdict::Ancestor { .. } => {
            w.pending.writes.parent_captured += 1;
            w.undo.push(UndoEntry {
                addr,
                old: w.mem.load_private(addr),
            });
        }
        RunVerdict::Shared { .. } if w.annotation_hit(addr) => {
            // Paper §3.1.3: annotated memory is accessed directly — the
            // programmer asserts no other transaction can observe it, and
            // (like the paper) we do not undo-log it.
            w.pending.writes.elided_annotation += 1;
        }
        RunVerdict::Shared { .. } => {
            w.pending.writes.full += 1;
            return w.write_full(addr, val);
        }
    }
    w.mem.store_private(addr, val);
    Ok(())
}

/// The ranged write barrier; see [`super::read::read_range`] — this is its
/// write-side twin with the current/ancestor split. The undo/lock log
/// shape stays bit-identical to a per-word loop: captured runs lower to
/// bulk private stores, ancestor runs to per-word undo-logged stores,
/// shared runs to the stripe-batched slowpath.
pub(super) fn write_range<L: Pipeline>(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
    src: &[u64],
) -> TxResult<()> {
    if w.cfg.classify || w.cfg.annotations {
        // Per-word degradation, as in `read_range`.
        w.pending.ranged.fallbacks += 1;
        for (k, &val) in src.iter().enumerate() {
            write::<L>(w, site, addr.word(k as u64), val)?;
        }
        return Ok(());
    }
    debug_assert!(w.depth > 0, "write barrier outside transaction");
    let limit = addr.word(src.len() as u64).raw();
    let mut i = 0usize;
    while i < src.len() {
        let a = addr.word(i as u64);
        let verdict = w.run_verdict::<L, true>(site, a, limit);
        let n = verdict.words(a);
        w.bump_ranged_run(n);
        match verdict {
            RunVerdict::Captured { via, .. } => {
                *via.counter(&mut w.pending.writes) += n as u64;
                w.mem.store_range_private(a, &src[i..i + n]);
            }
            RunVerdict::Ancestor { .. } => {
                // Per-word undo entries in ascending address order,
                // exactly what a per-word loop logs.
                w.pending.writes.parent_captured += n as u64;
                for (k, &val) in src[i..i + n].iter().enumerate() {
                    let wa = a.word(k as u64);
                    w.undo.push(UndoEntry {
                        addr: wa,
                        old: w.mem.load_private(wa),
                    });
                    w.mem.store_private(wa, val);
                }
            }
            RunVerdict::Shared { .. } => {
                w.write_full_range(a, &src[i..i + n])?;
                w.pending.writes.full += n as u64;
            }
        }
        i += n;
    }
    Ok(())
}
