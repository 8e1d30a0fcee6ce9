//! The capture-optimized read and write barriers (paper Fig. 2 and §3.1):
//! one generic body per operation, monomorphized over the [`Pipeline`].
//!
//! Barrier structure, in order:
//! 1. statistics bookkeeping (per-transaction counters, flushed at commit);
//! 2. **capture fast paths**, as the pipeline's consts enable them:
//!    compiler-elided sites (static), then the runtime checks — the
//!    nursery window and the transaction-local stack (a range compare
//!    each), the transaction-local heap (a [`CapturePolicy::query_run`]
//!    call) — then annotated private memory. One classifier answers for
//!    every access shape: the per-word barriers ask it about a one-word
//!    run;
//! 3. the **full STM barrier** (`slowpath`): optimistic versioned read with
//!    snapshot extension, or encounter-time lock acquisition + undo log +
//!    in-place store.
//!
//! # Dispatch
//!
//! The paper's whole contribution is shaving tens of cycles off every
//! barrier, so the barrier pipeline cannot afford to re-decide *how* to
//! check capture on every access. All mode/log dispatch is resolved once,
//! when the runtime is constructed: [`DispatchTable::select`] maps the
//! configuration to the [`Pipeline::TABLE`] of one of six pipelines —
//! [`Baseline`], [`Compiler`], [`CompilerInterproc`], and [`Runtime`] over
//! [`RangeTree`], [`RangeArray`] or [`AddrFilter`]. Every table holds
//! instances of the same four bodies (`read`, `write`, `read_range`,
//! `write_range`); inside them there is no `match` on `Mode` or `LogKind`
//! — the pipeline's consts fold away and the policy is reached through
//! [`PolicySlot`], a zero-branch field projection into [`CaptureLogs`].
//!
//! The pre-refactor shape — one barrier body that `match`es on the mode
//! and queries an enum-dispatched [`LogImpl`] per access — survives in
//! [`reference`] behind [`crate::TxConfig::reference_dispatch`], as the
//! differential-testing oracle for this pipeline.

pub(crate) mod fastpath;
mod read;
mod reference;
mod slowpath;
mod write;

use capture::{AddrFilter, CapturePolicy, LogImpl, LogKind, RangeArray, RangeTree};
use txmem::Addr;

use crate::config::{Mode, TxConfig};
use crate::site::Site;
use crate::worker::{TxResult, WorkerCtx};

/// Where a captured address was allocated, relative to the current nesting.
pub(crate) enum CaptureHit {
    /// Captured by the current (innermost) transaction: plain access.
    Current,
    /// Captured by an ancestor: reads are plain; writes need an undo entry
    /// (paper §2.2.1: live-in for the child, partial abort must restore).
    Ancestor,
}

/// Per-worker storage for every capture policy a [`Pipeline`] can be
/// monomorphized over.
///
/// Exactly one member is *active* — the one the spawn-time-selected
/// [`DispatchTable`] routes `on_alloc`/`on_free`/`reset` and the barriers'
/// queries to — so the inactive members stay empty and cost only their
/// inline size (the filter is sized down to one slot unless selected). Holding all members as plain
/// fields is what lets [`PolicySlot`] hand the monomorphized barrier its
/// policy with a field projection instead of an enum `match`.
pub(crate) struct CaptureLogs {
    tree: RangeTree,
    array: RangeArray<4>,
    filter: AddrFilter,
    /// Enum-dispatch log for the [`reference`] pipeline; populated only
    /// under [`TxConfig::reference_dispatch`].
    reference: Option<LogImpl>,
}

/// Slot count (log2) for a selected filter policy; matches the fixed-size
/// table of [`capture::LogImpl::new`] (16 KiB of interleaved slots — small
/// enough to stay L1-resident next to the transaction's working set).
const FILTER_LOG2: u32 = capture::DEFAULT_FILTER_LOG2;

impl CaptureLogs {
    pub(crate) fn new(cfg: &TxConfig) -> CaptureLogs {
        let kind = match cfg.mode {
            Mode::Runtime { log, .. } => Some(log),
            // Baseline/Compiler pipelines never consult a capture policy
            // and their allocation hooks are gated off, so the logs stay
            // empty (the paper's baseline pays no logging cost).
            _ => None,
        };
        let filter_log2 = match kind {
            Some(LogKind::Filter) if !cfg.reference_dispatch => FILTER_LOG2,
            _ => 0,
        };
        CaptureLogs {
            tree: RangeTree::new(),
            array: RangeArray::new(),
            filter: AddrFilter::with_log2_entries(filter_log2),
            reference: cfg
                .reference_dispatch
                .then(|| LogImpl::new(kind.unwrap_or(LogKind::Tree))),
        }
    }

    /// The reference pipeline's enum-dispatched log.
    fn reference_log(&self) -> &LogImpl {
        self.reference
            .as_ref()
            .expect("reference dispatch selected without a reference log")
    }

    fn reference_log_mut(&mut self) -> &mut LogImpl {
        self.reference
            .as_mut()
            .expect("reference dispatch selected without a reference log")
    }
}

/// Gives a monomorphized barrier its capture policy as a plain field
/// projection — no discriminant test, no virtual call. The projected field
/// is the *active* one because a [`Pipeline::TABLE`] instantiates its
/// barriers and its `on_alloc`/`on_free`/`reset` hooks from the same
/// [`Pipeline::Log`].
pub(crate) trait PolicySlot: CapturePolicy {
    fn of(logs: &CaptureLogs) -> &Self;
    fn of_mut(logs: &mut CaptureLogs) -> &mut Self;
}

macro_rules! policy_slot {
    ($ty:ty, $field:ident) => {
        impl PolicySlot for $ty {
            #[inline(always)]
            fn of(logs: &CaptureLogs) -> &$ty {
                &logs.$field
            }
            #[inline(always)]
            fn of_mut(logs: &mut CaptureLogs) -> &mut $ty {
                &mut logs.$field
            }
        }
    };
}
policy_slot!(RangeTree, tree);
policy_slot!(RangeArray<4>, array);
policy_slot!(AddrFilter, filter);

/// The once-per-configuration resolved barrier pipeline: read/write entry
/// points plus the allocation-event hooks that keep the active policy in
/// sync. [`WorkerCtx`] carries a `&'static` to one [`Pipeline::TABLE`] (or
/// [`REFERENCE`]) and every transactional access goes through these
/// pointers — one predictable indirect call, no data-dependent branching.
pub(crate) struct DispatchTable {
    pub(crate) read: for<'rt> fn(&mut WorkerCtx<'rt>, &'static Site, Addr) -> TxResult<u64>,
    pub(crate) write: for<'rt> fn(&mut WorkerCtx<'rt>, &'static Site, Addr, u64) -> TxResult<()>,
    /// Ranged read: classify once per homogeneous run (see `read.rs`).
    pub(crate) read_range:
        for<'rt> fn(&mut WorkerCtx<'rt>, &'static Site, Addr, &mut [u64]) -> TxResult<()>,
    /// Ranged write; see `write.rs`.
    pub(crate) write_range:
        for<'rt> fn(&mut WorkerCtx<'rt>, &'static Site, Addr, &[u64]) -> TxResult<()>,
    pub(crate) on_alloc: fn(&mut CaptureLogs, u64, u64, u32),
    pub(crate) on_free: fn(&mut CaptureLogs, u64, u64),
    pub(crate) reset: fn(&mut CaptureLogs),
}

/// Which capture checks a barrier runs before the full STM barrier: the
/// one body per operation in `read.rs`/`write.rs` is generic over this
/// type, and each associated const is a compile-time constant that
/// monomorphization folds away, so an instance carries exactly its own
/// checks and never `match`es on [`Mode`].
pub(crate) trait Pipeline: Sized {
    /// Compiler-elided sites (`Site::compiler_elides`) skip the barrier
    /// (paper §3.2).
    const STATIC: bool;
    /// Sites only the interprocedural summary proves captured
    /// (`Site::compiler_elides_interproc`) skip it too.
    const INTERPROC: bool;
    /// The runtime capture checks run (paper §3.1): nursery window, stack
    /// range, then the allocation log. Off, the allocation hooks no-op
    /// and the logs stay empty — the paper's baseline pays no logging.
    const RUNTIME: bool;
    /// The allocation log behind the heap check (consulted only under
    /// [`Pipeline::RUNTIME`]); with the nursery on it is the fallback for
    /// overflow, demoted and large blocks.
    type Log: PolicySlot;

    /// This pipeline's entry points and hooks.
    const TABLE: DispatchTable = DispatchTable {
        read: read::read::<Self>,
        write: write::write::<Self>,
        read_range: read::read_range::<Self>,
        write_range: write::write_range::<Self>,
        on_alloc: on_alloc::<Self>,
        on_free: on_free::<Self>,
        reset: reset::<Self>,
    };
}

/// No capture analysis: every access runs the full barrier (modulo
/// annotations).
pub(crate) enum Baseline {}
/// Intraprocedural compiler capture analysis: statically elided sites
/// skip everything; no runtime capture state.
pub(crate) enum Compiler {}
/// Interprocedural compiler capture analysis: the superset static verdict
/// skips the barrier too; no runtime capture state.
pub(crate) enum CompilerInterproc {}
/// Runtime capture analysis over the allocation log `P`. The nursery
/// window is checked first whether or not [`TxConfig::nursery`] is on:
/// with the nursery inactive its range is empty, so the check never hits.
pub(crate) struct Runtime<P>(std::marker::PhantomData<P>);

impl Pipeline for Baseline {
    const STATIC: bool = false;
    const INTERPROC: bool = false;
    const RUNTIME: bool = false;
    type Log = RangeTree;
}

impl Pipeline for Compiler {
    const STATIC: bool = true;
    const INTERPROC: bool = false;
    const RUNTIME: bool = false;
    type Log = RangeTree;
}

impl Pipeline for CompilerInterproc {
    const STATIC: bool = true;
    const INTERPROC: bool = true;
    const RUNTIME: bool = false;
    type Log = RangeTree;
}

impl<P: PolicySlot> Pipeline for Runtime<P> {
    const STATIC: bool = false;
    const INTERPROC: bool = false;
    const RUNTIME: bool = true;
    type Log = P;
}

fn on_alloc<L: Pipeline>(logs: &mut CaptureLogs, start: u64, len: u64, level: u32) {
    if L::RUNTIME {
        L::Log::of_mut(logs).insert(start, len, level);
    }
}

fn on_free<L: Pipeline>(logs: &mut CaptureLogs, start: u64, len: u64) {
    if L::RUNTIME {
        L::Log::of_mut(logs).remove(start, len);
    }
}

fn reset<L: Pipeline>(logs: &mut CaptureLogs) {
    if L::RUNTIME {
        L::Log::of_mut(logs).clear();
    }
}

fn reference_on_alloc(logs: &mut CaptureLogs, start: u64, len: u64, level: u32) {
    logs.reference_log_mut().insert(start, len, level);
}

fn reference_on_free(logs: &mut CaptureLogs, start: u64, len: u64) {
    logs.reference_log_mut().remove(start, len);
}

fn reference_reset(logs: &mut CaptureLogs) {
    logs.reference_log_mut().clear();
}

/// The enum-dispatch oracle: per-access `match` on mode and log kind.
static REFERENCE: DispatchTable = DispatchTable {
    read: reference::read_reference,
    write: reference::write_reference,
    read_range: reference::read_range_reference,
    write_range: reference::write_range_reference,
    on_alloc: reference_on_alloc,
    on_free: reference_on_free,
    reset: reference_reset,
};

impl DispatchTable {
    /// Resolve the barrier pipeline for a configuration. This is the single
    /// place where `Mode` and `LogKind` are matched — it runs once, at
    /// [`crate::StmRuntime::new`], never inside a barrier. The nursery
    /// flag is not an input: every pipeline allocates the same way, and
    /// the flag only decides whether a bump block is logged at birth or
    /// classified by the worker's scalar window, which stays empty with
    /// the flag off.
    pub(crate) fn select(cfg: &TxConfig) -> &'static DispatchTable {
        if cfg.reference_dispatch {
            return &REFERENCE;
        }
        match cfg.mode {
            Mode::Baseline => &Baseline::TABLE,
            Mode::Compiler => &Compiler::TABLE,
            Mode::CompilerInterproc => &CompilerInterproc::TABLE,
            Mode::Runtime { log, .. } => match log {
                LogKind::Tree => &Runtime::<RangeTree>::TABLE,
                LogKind::Array => &Runtime::<RangeArray<4>>::TABLE,
                LogKind::Filter => &Runtime::<AddrFilter>::TABLE,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckScope;

    fn runtime_cfg(log: LogKind) -> TxConfig {
        TxConfig::with_mode(Mode::Runtime {
            log,
            scope: CheckScope::FULL,
        })
    }

    /// Elision counters `(elided_static, elided_static_interproc)` after
    /// `table`'s read barrier runs once on an intraprocedurally and once on
    /// an interprocedurally captured site, on a worker of `cfg`.
    fn static_elisions(cfg: TxConfig, table: &'static DispatchTable) -> (u64, u64) {
        static LOCAL: Site = Site::captured_local("select.local");
        static INTERPROC: Site = Site::captured_interproc("select.interproc");
        let rt = crate::StmRuntime::new(txmem::MemConfig::small(), cfg);
        let mut w = rt.spawn_worker();
        let a = w.alloc_raw(8);
        w.txn(|tx| {
            (table.read)(tx.0, &LOCAL, a)?;
            (table.read)(tx.0, &INTERPROC, a)?;
            let r = &tx.0.pending.reads;
            Ok((r.elided_static, r.elided_static_interproc))
        })
    }

    #[test]
    fn select_pairs_tables_with_modes() {
        // Each static mode selects the table whose barrier elides exactly
        // its own verdicts, and none of them keeps an allocation log.
        for (mode, elided) in [
            (Mode::Baseline, (0, 0)),
            (Mode::Compiler, (1, 0)),
            (Mode::CompilerInterproc, (1, 1)),
        ] {
            let cfg = TxConfig::with_mode(mode);
            let table = DispatchTable::select(&cfg);
            assert_eq!(static_elisions(cfg, table), elided, "{mode:?}");
            let mut logs = CaptureLogs::new(&cfg);
            (table.on_alloc)(&mut logs, 64, 64, 1);
            assert_eq!(RangeTree::of(&logs).query(64), None, "{mode:?}");
            assert_eq!(RangeArray::<4>::of(&logs).query(64), None);
            assert_eq!(AddrFilter::of(&logs).query(64), None);
        }
        // Each runtime log kind selects the table that logs into, and
        // classifies through, exactly its own member of `CaptureLogs`.
        type Query = fn(&CaptureLogs, u64) -> Option<u32>;
        let members: [(LogKind, Query); 3] = [
            (LogKind::Tree, |l, a| RangeTree::of(l).query(a)),
            (LogKind::Array, |l, a| RangeArray::<4>::of(l).query(a)),
            (LogKind::Filter, |l, a| AddrFilter::of(l).query(a)),
        ];
        for (log, _) in members {
            let cfg = runtime_cfg(log);
            let mut logs = CaptureLogs::new(&cfg);
            (DispatchTable::select(&cfg).on_alloc)(&mut logs, 64, 64, 1);
            for (member, query) in members {
                let want = (member == log).then_some(1);
                assert_eq!(query(&logs, 64), want, "{log:?} table, {member:?} member");
            }
        }
        let tables = [
            DispatchTable::select(&TxConfig::default()),
            DispatchTable::select(&TxConfig::with_mode(Mode::Compiler)),
            DispatchTable::select(&TxConfig::with_mode(Mode::CompilerInterproc)),
            DispatchTable::select(&runtime_cfg(LogKind::Tree)),
            DispatchTable::select(&runtime_cfg(LogKind::Array)),
            DispatchTable::select(&runtime_cfg(LogKind::Filter)),
        ];
        for (i, a) in tables.iter().enumerate() {
            for b in &tables[i + 1..] {
                assert!(!std::ptr::eq(*a, *b), "each pipeline has its own table");
            }
            assert!(!std::ptr::eq(*a, &REFERENCE));
        }
        let mut refcfg = runtime_cfg(LogKind::Array);
        refcfg.reference_dispatch = true;
        assert!(std::ptr::eq(DispatchTable::select(&refcfg), &REFERENCE));
        refcfg.nursery = true;
        assert!(
            std::ptr::eq(DispatchTable::select(&refcfg), &REFERENCE),
            "reference dispatch oracles every configuration, nursery included"
        );
    }

    #[test]
    fn nursery_does_not_select_the_table() {
        for log in LogKind::ALL {
            let plain = runtime_cfg(log);
            let mut nursery = plain;
            nursery.nursery = true;
            assert!(
                std::ptr::eq(
                    DispatchTable::select(&plain),
                    DispatchTable::select(&nursery)
                ),
                "{log:?}: nursery on and off must share one pipeline"
            );
        }
    }

    #[test]
    fn capture_logs_allocate_lazily() {
        // Only a selected filter policy pays for a real filter table.
        let filter_cfg = runtime_cfg(LogKind::Filter);
        assert_eq!(
            CaptureLogs::new(&filter_cfg).filter.capacity(),
            1usize << FILTER_LOG2
        );
        assert_eq!(CaptureLogs::new(&TxConfig::default()).filter.capacity(), 1);
        assert!(CaptureLogs::new(&TxConfig::default()).reference.is_none());

        let mut refcfg = runtime_cfg(LogKind::Filter);
        refcfg.reference_dispatch = true;
        let logs = CaptureLogs::new(&refcfg);
        assert_eq!(logs.reference_log().kind(), LogKind::Filter);
        assert_eq!(logs.filter.capacity(), 1, "reference run: slot unused");
    }

    #[test]
    fn policy_slots_project_the_matching_field() {
        let cfg = runtime_cfg(LogKind::Tree);
        let mut logs = CaptureLogs::new(&cfg);
        use capture::CapturePolicy;
        RangeTree::of_mut(&mut logs).insert(64, 8, 1);
        assert!(RangeTree::of(&logs).query(64).is_some());
        assert!(RangeArray::<4>::of(&logs).query(64).is_none());
        assert!(AddrFilter::of(&logs).query(64).is_none());
    }
}
