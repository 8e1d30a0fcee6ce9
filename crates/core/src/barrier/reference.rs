//! The enum-dispatch **reference pipeline**: the pre-monomorphization
//! barrier shape, kept verbatim behind [`crate::TxConfig::reference_dispatch`].
//!
//! Every access re-`match`es the configured [`Mode`] and queries the heap
//! log through [`capture::LogImpl`]'s per-call enum dispatch — exactly the
//! per-access overhead the monomorphized pipeline hoists to spawn time.
//! It exists for two reasons:
//!
//! * **differential testing** — `tests/dispatch_equiv.rs` replays random
//!   transaction traces through both pipelines and requires bit-identical
//!   memory and statistics;
//! * **measurement** — the `barrier_dispatch` microbenchmark quantifies
//!   what hoisting the dispatch buys.
//!
//! It must produce *identical observable behavior* to the monomorphized
//! variants, including statistics, so both pipelines count through the
//! same per-transaction delta.

use txmem::Addr;

use super::CaptureHit;
use crate::config::Mode;
use crate::site::Site;
use crate::worker::{TxResult, UndoEntry, WorkerCtx};

impl WorkerCtx<'_> {
    /// Allocation-log lookup through the enum-dispatched reference log.
    #[inline]
    fn log_capture_reference(&self, addr: Addr) -> Option<CaptureHit> {
        let level = self.logs.reference_log().query(addr.raw())?;
        Some(if level >= self.depth {
            CaptureHit::Current
        } else {
            CaptureHit::Ancestor
        })
    }

    /// Nursery classification through [`capture::NurseryLog::classify`] —
    /// the per-access "count the watermarks" form rather than the
    /// monomorphized pipeline's scalar compares. Differential testing of
    /// the two is exactly what proves the scalar shortcut (`addr >= inner`)
    /// equivalent to the level arithmetic.
    #[inline]
    fn nursery_capture_reference(&self, addr: Addr) -> Option<CaptureHit> {
        if !self.nursery_on {
            return None;
        }
        let level = self.nur.classify(addr.raw())?;
        Some(if level >= self.depth {
            CaptureHit::Current
        } else {
            CaptureHit::Ancestor
        })
    }
}

/// The seed's read barrier, dispatching on `Mode` per access.
pub(super) fn read_reference(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
) -> TxResult<u64> {
    debug_assert!(w.depth > 0, "read barrier outside transaction");
    if w.cfg.classify {
        w.classify_access(site, addr, false);
    }

    match w.cfg.mode {
        Mode::Compiler if site.compiler_elides => {
            w.pending.reads.elided_static += 1;
            return Ok(w.mem.load_private(addr));
        }
        Mode::CompilerInterproc if site.compiler_elides_interproc => {
            if site.compiler_elides {
                w.pending.reads.elided_static += 1;
            } else {
                w.pending.reads.elided_static_interproc += 1;
            }
            return Ok(w.mem.load_private(addr));
        }
        Mode::Runtime { scope, .. } if scope.reads => {
            if scope.heap && w.nursery_capture_reference(addr).is_some() {
                w.pending.reads.elided_nursery += 1;
                return Ok(w.mem.load_private(addr));
            }
            if scope.stack && w.stack_capture(addr).is_some() {
                w.pending.reads.elided_stack += 1;
                return Ok(w.mem.load_private(addr));
            }
            if scope.heap && w.log_capture_reference(addr).is_some() {
                w.pending.reads.elided_heap += 1;
                return Ok(w.mem.load_private(addr));
            }
        }
        _ => {}
    }
    if w.annotation_hit(addr) {
        w.pending.reads.elided_annotation += 1;
        return Ok(w.mem.load_private(addr));
    }

    w.pending.reads.full += 1;
    w.read_full(addr)
}

/// The seed's write barrier, dispatching on `Mode` per access.
pub(super) fn write_reference(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
    val: u64,
) -> TxResult<()> {
    debug_assert!(w.depth > 0, "write barrier outside transaction");
    if w.cfg.classify {
        w.classify_access(site, addr, true);
    }

    match w.cfg.mode {
        Mode::Compiler if site.compiler_elides => {
            w.pending.writes.elided_static += 1;
            w.mem.store_private(addr, val);
            return Ok(());
        }
        Mode::CompilerInterproc if site.compiler_elides_interproc => {
            if site.compiler_elides {
                w.pending.writes.elided_static += 1;
            } else {
                w.pending.writes.elided_static_interproc += 1;
            }
            w.mem.store_private(addr, val);
            return Ok(());
        }
        Mode::Runtime { scope, .. } if scope.writes => {
            if scope.heap {
                match w.nursery_capture_reference(addr) {
                    Some(CaptureHit::Current) => {
                        w.pending.writes.elided_nursery += 1;
                        w.mem.store_private(addr, val);
                        return Ok(());
                    }
                    Some(CaptureHit::Ancestor) => {
                        w.pending.writes.parent_captured += 1;
                        w.undo.push(UndoEntry {
                            addr,
                            old: w.mem.load_private(addr),
                        });
                        w.mem.store_private(addr, val);
                        return Ok(());
                    }
                    None => {}
                }
            }
            if scope.stack {
                match w.stack_capture(addr) {
                    Some(CaptureHit::Current) => {
                        w.pending.writes.elided_stack += 1;
                        w.mem.store_private(addr, val);
                        return Ok(());
                    }
                    Some(CaptureHit::Ancestor) => {
                        w.pending.writes.parent_captured += 1;
                        w.undo.push(UndoEntry {
                            addr,
                            old: w.mem.load_private(addr),
                        });
                        w.mem.store_private(addr, val);
                        return Ok(());
                    }
                    None => {}
                }
            }
            if scope.heap {
                match w.log_capture_reference(addr) {
                    Some(CaptureHit::Current) => {
                        w.pending.writes.elided_heap += 1;
                        w.mem.store_private(addr, val);
                        return Ok(());
                    }
                    Some(CaptureHit::Ancestor) => {
                        w.pending.writes.parent_captured += 1;
                        w.undo.push(UndoEntry {
                            addr,
                            old: w.mem.load_private(addr),
                        });
                        w.mem.store_private(addr, val);
                        return Ok(());
                    }
                    None => {}
                }
            }
        }
        _ => {}
    }
    if w.annotation_hit(addr) {
        w.pending.writes.elided_annotation += 1;
        w.mem.store_private(addr, val);
        return Ok(());
    }

    w.pending.writes.full += 1;
    w.write_full(addr, val)
}

/// The reference pipeline's ranged read: a per-word loop over
/// [`read_reference`], counted as one ranged fallback. Keeping the oracle
/// per-word is deliberate — differential runs against the monomorphized
/// ranged barriers then prove the run classification equivalent to per-word
/// classification, exactly as `dispatch_equiv` proves the per-word rows.
pub(super) fn read_range_reference(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
    dst: &mut [u64],
) -> TxResult<()> {
    w.pending.ranged.fallbacks += 1;
    for (k, slot) in dst.iter_mut().enumerate() {
        *slot = read_reference(w, site, addr.word(k as u64))?;
    }
    Ok(())
}

/// Write-side analog of [`read_range_reference`].
pub(super) fn write_range_reference(
    w: &mut WorkerCtx<'_>,
    site: &'static Site,
    addr: Addr,
    src: &[u64],
) -> TxResult<()> {
    w.pending.ranged.fallbacks += 1;
    for (k, &val) in src.iter().enumerate() {
        write_reference(w, site, addr.word(k as u64), val)?;
    }
    Ok(())
}
