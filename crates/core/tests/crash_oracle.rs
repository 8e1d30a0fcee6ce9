//! Kill-and-recover oracle for the durable redo-log commit mode
//! (`TxConfig::durable`, ISSUE 8 tentpole).
//!
//! A deterministic script of logical transactions runs on a durable
//! runtime whose [`SimDisk`] is armed with a crash-point fault plan:
//! the disk dies before, in the middle of (torn tail), or right after a
//! log append, or inside a checkpoint (after the snapshot, or after the
//! manifest but before log truncation). The workload stops when it
//! notices the kill, [`recover`] rebuilds a runtime from whatever
//! survived, and the oracle diffs the recovered memory **word for word**
//! against a pure shadow simulation of the committed prefix the recovery
//! reports:
//!
//! * every shared cell holds exactly the value after `L` logical commits
//!   (`L` = `RecoveryReport::logical_committed`) — never a torn mixture;
//! * every publication slot points at the block the `L`-prefix published
//!   (the *actual* pointer the crashed run allocated), and the block's
//!   contents — written through the **captured** elided path and logged
//!   as one coalesced range — are bit-exact, header-restored;
//! * `L` never exceeds what the crashed run committed, and equals it
//!   when no fault fired.
//!
//! The property runs the script across the paper's whole configuration
//! matrix — Baseline and the allocation-log kinds × nursery × the typed
//! object layer — plus optional mid-run checkpoints. Deterministic companions pin each
//! fault phase at every append index (single worker, and two dependent
//! workers), the checkpoint crash windows, the background checkpointer,
//! checkpoints racing each other and two workers (one of them committing
//! captured-only blocks, whose records are appended with no lock held),
//! and durable-mode transparency (durable vs. transient runs are observably identical,
//! durable telemetry redacted via `tests/common`).

mod common;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use stm::{
    recover, Abort, CheckScope, FaultPhase, FaultPlan, LogKind, Mode, RecoveryReport, SimDisk,
    Site, StmRuntime, Tx, TxConfig, TxResult,
};
use txmem::{Addr, MemConfig};

static S_SHARED: Site = Site::shared("crash.shared");
static S_CAP: Site = Site::captured_escaped("crash.captured");
static S_LOCAL: Site = Site::captured_local("crash.local");

const CELLS: u64 = 8;
const SLOTS: u64 = 4;
const BLK_WORDS: u64 = 4;

/// One logical transaction, fully determined by its fields and its index:
/// a shared-cell RMW, optionally an allocate-fill-publish (the captured →
/// coalesced-range path), optionally a nested child (partial abort),
/// optionally a stack frame a nested child writes (an undo-logged write
/// that is no shared state), optionally a user abort (no effects, no
/// commit). A `captured_only`
/// transaction does none of that: it allocates and fills a block it never
/// publishes, a commit that takes no lock yet appends a record.
#[derive(Clone, Debug)]
struct TxnSpec {
    captured_only: bool,
    cell: u8,
    val: u64,
    alloc: bool,
    slot: u8,
    free_old: bool,
    nested: bool,
    abort_nested: bool,
    stack_frame: bool,
    user_abort: bool,
}

fn txn_spec() -> impl Strategy<Value = TxnSpec> {
    (
        (any::<u8>(), any::<u64>(), any::<bool>(), any::<u8>()),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            prop_oneof![4 => Just(false), 1 => Just(true)],
        ),
    )
        .prop_map(
            |(
                (cell, val, alloc, slot),
                (free_old, nested, abort_nested, stack_frame, user_abort),
            )| TxnSpec {
                captured_only: false,
                cell,
                val,
                alloc,
                slot,
                free_old,
                nested,
                abort_nested,
                stack_frame,
                user_abort,
            },
        )
}

/// Configuration axes one oracle case exercises.
#[derive(Clone, Copy, Debug)]
struct OracleCfg {
    /// The runtime arm's log; `None` is Baseline, which checks no capture,
    /// so every block fill and stack-frame write takes a line lock and
    /// reaches the put gather (Baseline runs with the nursery off).
    log: Option<LogKind>,
    nursery: bool,
    /// Drive the block fill/publish through the typed layer
    /// (`alloc_buf`/`write_elem`) instead of raw word barriers.
    typed: bool,
    /// Run one checkpoint after this many logical transactions completed.
    ckpt_after: Option<usize>,
}

fn oracle_cfg() -> impl Strategy<Value = OracleCfg> {
    (
        (0..LogKind::ALL.len() + 1, any::<bool>()),
        (
            any::<bool>(),
            prop_oneof![2 => Just(None), 1 => (1..6usize).prop_map(Some)],
        ),
    )
        .prop_map(|((log_idx, nursery), (typed, ckpt_after))| OracleCfg {
            log: LogKind::ALL.get(log_idx).copied(),
            nursery: nursery && log_idx < LogKind::ALL.len(),
            typed,
            ckpt_after,
        })
}

fn fault() -> impl Strategy<Value = Option<FaultPlan>> {
    prop_oneof![
        1 => Just(None),
        4 => (0..3usize, 0..40u64, 0..160u32).prop_map(|(ph, at, torn_keep)| {
            Some(FaultPlan {
                phase: [FaultPhase::PreFlush, FaultPhase::TornFlush, FaultPhase::PostFlush][ph],
                at,
                torn_keep,
            })
        }),
    ]
}

fn config(oc: &OracleCfg) -> TxConfig {
    let mode = oc.log.map_or(Mode::Baseline, |log| Mode::Runtime {
        log,
        scope: CheckScope::FULL,
    });
    TxConfig {
        nursery: oc.nursery,
        durable: true,
        orec_log2: 12, // small orec table; single-threaded workload
        ..TxConfig::with_mode(mode)
    }
}

// ---------------------------------------------------------------------------
// Shadow simulation: the committed-prefix oracle
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct SimState {
    cells: Vec<u64>,
    /// Per slot: the publishing transaction's index and the block contents
    /// it committed (`None` = never published).
    slots: Vec<Option<(usize, Vec<u64>)>>,
    /// Indices of the committed `captured_only` transactions: each left
    /// `blk_content(i)` in a block nothing points at.
    unpublished: Vec<usize>,
}

fn blk_content(i: usize) -> Vec<u64> {
    let i = i as u64;
    let mut c: Vec<u64> = (0..BLK_WORDS).map(|j| i * 1000 + j).collect();
    c[0] = i * 1000 + 7777; // the deliberate double write (coalescing)
    c
}

fn sim_apply(st: &mut SimState, t: &TxnSpec, i: usize) {
    if t.captured_only {
        st.unpublished.push(i);
        return;
    }
    let c = t.cell as usize % CELLS as usize;
    st.cells[c] = st.cells[c].wrapping_mul(3).wrapping_add(t.val ^ i as u64);
    if t.alloc {
        st.slots[t.slot as usize % SLOTS as usize] = Some((i, blk_content(i)));
    }
    if t.nested && !t.abort_nested {
        let c2 = (t.cell as usize + 1) % CELLS as usize;
        st.cells[c2] ^= i as u64 * 31 + 7;
    }
}

/// Pure re-execution of the first `upto_commits` *committing*
/// transactions of the script (user aborts commit nothing and don't
/// count).
fn simulate(script: &[TxnSpec], upto_commits: u64) -> SimState {
    let mut st = SimState {
        cells: vec![0; CELLS as usize],
        slots: vec![None; SLOTS as usize],
        unpublished: Vec::new(),
    };
    let mut committed = 0u64;
    for (i, t) in script.iter().enumerate() {
        if committed == upto_commits {
            break;
        }
        if t.user_abort {
            continue;
        }
        sim_apply(&mut st, t, i);
        committed += 1;
    }
    assert_eq!(
        committed, upto_commits,
        "recovery reported a logical prefix the script cannot produce"
    );
    st
}

// ---------------------------------------------------------------------------
// The real workload
// ---------------------------------------------------------------------------

struct Crashed {
    cells: Addr,
    slots: Addr,
    /// Logical commits the crashed run performed (in memory; the disk may
    /// hold fewer).
    committed: u64,
    /// Per transaction index: the block address its final (committed)
    /// execution published, 0 if none.
    ptrs: Vec<u64>,
    killed: bool,
    stats: stm::TxStats,
}

fn body(
    tx: &mut Tx<'_, '_>,
    t: &TxnSpec,
    i: usize,
    cells: Addr,
    slots: Addr,
    typed: bool,
    ptrs: &RefCell<Vec<u64>>,
) -> TxResult<()> {
    let iu = i as u64;
    if t.captured_only {
        let p = tx.alloc(BLK_WORDS * 8)?;
        for (j, w) in blk_content(i).into_iter().enumerate() {
            tx.write(&S_LOCAL, p.word(j as u64), w)?;
        }
        ptrs.borrow_mut()[i] = p.raw();
        return Ok(());
    }
    let c = cells.word(u64::from(t.cell) % CELLS);
    let v = tx.read(&S_SHARED, c)?;
    tx.write(&S_SHARED, c, v.wrapping_mul(3).wrapping_add(t.val ^ iu))?;
    if t.alloc {
        let p = if typed {
            let buf = tx.alloc_buf::<u64>(BLK_WORDS)?;
            for j in 0..BLK_WORDS {
                tx.write_elem(&S_LOCAL, buf, j, iu * 1000 + j)?;
            }
            tx.write_elem(&S_CAP, buf, 0, iu * 1000 + 7777)?;
            buf.addr()
        } else {
            let p = tx.alloc(BLK_WORDS * 8)?;
            for j in 0..BLK_WORDS {
                tx.write(&S_LOCAL, p.word(j), iu * 1000 + j)?;
            }
            tx.write(&S_CAP, p, iu * 1000 + 7777)?;
            p
        };
        let slot = slots.word(u64::from(t.slot) % SLOTS);
        let old = tx.read(&S_SHARED, slot)?;
        tx.write(&S_SHARED, slot, p.raw())?;
        if t.free_old && old != 0 {
            tx.free(Addr(old));
        }
        ptrs.borrow_mut()[i] = p.raw();
    }
    if t.nested {
        let abort = t.abort_nested;
        let c2 = cells.word((u64::from(t.cell) + 1) % CELLS);
        let delta = iu * 31 + 7;
        let _ = tx.nested(|n| {
            let v = n.read(&S_SHARED, c2)?;
            n.write(&S_SHARED, c2, v ^ delta)?;
            if abort {
                Err(Abort::User(9))
            } else {
                Ok(())
            }
        })?;
    }
    if t.stack_frame {
        // The child's write to its parent's frame has the ancestor verdict:
        // undo-logged, with no lock. It is still no shared state.
        let f = tx.stack_push(2);
        tx.write(&S_CAP, f, iu + 1)?;
        tx.nested(|n| n.write(&S_CAP, f, !iu))?
            .expect("the child commits");
        tx.stack_pop(2);
    }
    if t.user_abort {
        return Err(Abort::User(iu + 1));
    }
    Ok(())
}

/// Run the script on a durable runtime over `disk` until it finishes or
/// the armed fault kills the disk.
fn run_workload(script: &[TxnSpec], oc: &OracleCfg, disk: &Arc<SimDisk>) -> Crashed {
    let rt = StmRuntime::new_durable(MemConfig::small(), config(oc), disk.clone());
    let cells = rt.alloc_global(CELLS * 8);
    let slots = rt.alloc_global(SLOTS * 8);
    let ptrs = RefCell::new(vec![0u64; script.len()]);
    let mut committed = 0u64;
    let mut ckpt_done = false;
    {
        let mut w = rt.spawn_worker();
        let mut done = 0usize;
        while done < script.len() && !disk.is_killed() {
            let t = &script[done];
            let i = done;
            let r = w.txn_result(|tx| body(tx, t, i, cells, slots, oc.typed, &ptrs));
            if r.is_ok() {
                committed += 1;
            }
            done += 1;
            if let Some(k) = oc.ckpt_after {
                if done >= k && !ckpt_done {
                    rt.checkpoint_now();
                    ckpt_done = true;
                }
            }
        }
    }
    Crashed {
        cells,
        slots,
        committed,
        ptrs: ptrs.into_inner(),
        killed: disk.is_killed(),
        stats: rt.collect_stats(),
    }
}

/// Recover from `disk` and diff memory word-for-word against the shadow
/// simulation of the reported committed prefix. Returns the report for
/// callers asserting phase-specific expectations.
fn verify_recovery(
    script: &[TxnSpec],
    oc: &OracleCfg,
    disk: &Arc<SimDisk>,
    crashed: &Crashed,
) -> RecoveryReport {
    let (rt2, report) = recover(MemConfig::small(), config(oc), disk.clone());
    let l = report.logical_committed;
    assert!(
        l <= crashed.committed,
        "recovered more ({l}) than the crashed run committed ({})",
        crashed.committed
    );
    if !crashed.killed {
        assert_eq!(
            l, crashed.committed,
            "a kill-free run must recover every commit"
        );
    }
    // Every record is on disk before its commit returns: a kill loses at
    // most the commit whose append it interrupted.
    assert!(
        l + 1 >= crashed.committed,
        "recovered {l} of {} commits",
        crashed.committed
    );
    if let Err(e) = diff_prefix(&rt2, script, crashed, l) {
        panic!("{e}");
    }
    report
}

/// Diff recovered memory word for word against the shadow simulation of
/// the first `l` commits of `script`, as run into `crashed`'s cells, slots
/// and block ledger; the first divergence is the error.
fn diff_prefix(
    rt2: &StmRuntime,
    script: &[TxnSpec],
    crashed: &Crashed,
    l: u64,
) -> Result<(), String> {
    let sim = simulate(script, l);
    let load = |a: Addr| rt2.mem().load_private(a);
    for c in 0..CELLS as usize {
        let got = load(crashed.cells.word(c as u64));
        if got != sim.cells[c] {
            return Err(format!(
                "cell {c} diverged after recovering {l} commits: {got} != {}",
                sim.cells[c]
            ));
        }
    }
    let block = |i: usize, content: &[u64], what: &str| {
        let ptr = crashed.ptrs[i];
        if ptr == 0 {
            return Err(format!("ledger lost the block of txn {i} ({what})"));
        }
        for (j, &want) in content.iter().enumerate() {
            let got = load(Addr(ptr).word(j as u64));
            if got != want {
                return Err(format!(
                    "block word {j} of txn {i} ({what}) diverged: {got} != {want}"
                ));
            }
        }
        Ok(ptr)
    };
    for s in 0..SLOTS as usize {
        let got = load(crashed.slots.word(s as u64));
        match &sim.slots[s] {
            None if got != 0 => return Err(format!("slot {s} must be unpublished")),
            None => {}
            Some((i, content)) => {
                let ptr = block(*i, content, &format!("published in slot {s}"))?;
                if got != ptr {
                    return Err(format!("slot {s} points at the wrong block"));
                }
            }
        }
    }
    for &i in &sim.unpublished {
        block(i, &blk_content(i), "captured only")?;
    }
    // Stack words are no shared state: recovery leaves every one as a
    // fresh runtime has it.
    let layout = rt2.mem().layout();
    for a in (layout.stacks_start..layout.heap_start).step_by(8) {
        if load(Addr(a)) != 0 {
            return Err(format!("recovery wrote the stack word {a:#x}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The tentpole's oracle: for any script, configuration, and crash
    // point, recovery reconstructs exactly the committed prefix the disk
    // holds — bit-identical cells, slots, and published block contents.
    #[test]
    fn recovery_is_exactly_the_logged_prefix(
        script in proptest::collection::vec(txn_spec(), 3..14),
        oc in oracle_cfg(),
        fault in fault(),
    ) {
        let disk = SimDisk::new();
        if let Some(f) = fault {
            disk.arm(f);
        }
        let crashed = run_workload(&script, &oc, &disk);
        let report = verify_recovery(&script, &oc, &disk, &crashed);
        prop_assert!(report.frontier > 0, "recovery must restore a heap frontier");
    }
}

// ---------------------------------------------------------------------------
// Deterministic companions
// ---------------------------------------------------------------------------

/// A fixed script in which every transaction commits and writes (so, in
/// strict mode with no checkpoints, log appends correspond 1:1 to
/// commits).
fn fixed_script(n: usize) -> Vec<TxnSpec> {
    (0..n)
        .map(|i| TxnSpec {
            captured_only: false,
            cell: i as u8,
            val: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1),
            alloc: i % 2 == 0,
            slot: i as u8,
            free_old: i % 4 == 0,
            nested: i % 3 == 0,
            abort_nested: i % 6 == 0,
            stack_frame: i % 5 == 1,
            user_abort: false,
        })
        .collect()
}

const DET_CFG: OracleCfg = OracleCfg {
    log: Some(LogKind::Tree),
    nursery: false,
    typed: false,
    ckpt_after: None,
};

/// Every fault phase at every append index: PreFlush at `k` loses commit
/// `k`; PostFlush at `k` keeps it; TornFlush at `k` loses it and leaves a
/// torn tail for recovery to chop (when any bytes landed).
#[test]
fn every_flush_phase_at_every_append_recovers_the_exact_prefix() {
    let script = fixed_script(6);
    for phase in [
        FaultPhase::PreFlush,
        FaultPhase::TornFlush,
        FaultPhase::PostFlush,
    ] {
        for at in 0..script.len() as u64 {
            let disk = SimDisk::new();
            disk.arm(FaultPlan {
                phase,
                at,
                torn_keep: 13,
            });
            let crashed = run_workload(&script, &DET_CFG, &disk);
            assert!(crashed.killed, "{phase:?}@{at} never fired");
            let report = verify_recovery(&script, &DET_CFG, &disk, &crashed);
            let expect_l = match phase {
                FaultPhase::PostFlush => at + 1,
                _ => at,
            };
            assert_eq!(
                report.logical_committed, expect_l,
                "{phase:?}@{at}: wrong prefix length"
            );
            let expect_torn = u64::from(phase == FaultPhase::TornFlush);
            assert_eq!(
                report.torn_tails, expect_torn,
                "{phase:?}@{at}: torn-tail accounting"
            );
        }
    }
}

/// The redo log holds shared state only. A durable `runtime_tree_full`
/// transaction whose one write outside its own level is a nested child's
/// write to the frame its parent pushed (an undo entry, no lock) appends
/// nothing, and a recovery after it leaves the memory image, stacks and
/// heap, as it was before the transaction.
#[test]
fn a_nested_write_to_a_parent_stack_frame_appends_nothing() {
    let disk = SimDisk::new();
    let cfg = TxConfig {
        durable: true,
        ..TxConfig::runtime_tree_full()
    };
    let image = |rt: &StmRuntime| -> Vec<u64> {
        let l = rt.mem().layout();
        (l.stacks_start..l.heap_end)
            .step_by(8)
            .map(|a| rt.mem().load_private(Addr(a)))
            .collect()
    };
    let rt = StmRuntime::new_durable(MemConfig::small(), cfg, disk.clone());
    let before = image(&rt);
    let mut w = rt.spawn_worker();
    w.txn(|tx| {
        let f = tx.stack_push(2);
        tx.write(&S_CAP, f, 1)?;
        tx.nested(|n| n.write(&S_CAP, f, 2))?
            .expect("the child commits");
        tx.stack_pop(2);
        Ok(())
    });
    assert_eq!((disk.append_count(), disk.log_bytes()), (0, 0));
    assert_eq!(w.stats.durable_flushes, 0);
    drop(w);
    let (rt2, report) = recover(MemConfig::small(), cfg, disk);
    assert_eq!(report.records_applied, 0);
    assert!(image(&rt2) == before, "recovery changed the memory image");
}

/// A put is an undo entry whose write took a line lock, but not every such
/// entry is a put. Under Baseline, and under the compiler arm at `shared`
/// sites, a write to a block the transaction allocated and a write to a
/// frame it pushed each take a line lock; the runtime arm elides both. The
/// put gather's allocation and stack filters keep those entries out of the
/// record, so all three arms append the same record: the block as one
/// content range and the publishing write as one put.
#[test]
fn locked_captured_writes_append_what_the_runtime_arm_appends() {
    let run = |mode: Mode| {
        let disk = SimDisk::new();
        let cfg = TxConfig {
            durable: true,
            ..TxConfig::with_mode(mode)
        };
        let rt = StmRuntime::new_durable(MemConfig::small(), cfg, disk.clone());
        let slot = rt.alloc_global(8);
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let p = tx.alloc(BLK_WORDS * 8)?;
            for j in 0..BLK_WORDS {
                tx.write(&S_SHARED, p.word(j), j + 1)?;
            }
            let f = tx.stack_push(2);
            tx.write(&S_SHARED, f, 7)?;
            tx.stack_pop(2);
            tx.write(&S_SHARED, slot, p.raw())
        });
        (disk.log_bytes(), w.stats.durable_words, w.stats.writes.full)
    };
    let (bytes, words, full) = run(TxConfig::runtime_tree_full().mode);
    assert_eq!(full, 1, "the runtime arm locks only the publishing write");
    for mode in [Mode::Baseline, Mode::Compiler] {
        let locked = run(mode);
        assert_eq!(locked.2, BLK_WORDS + 2, "{mode:?} locks every write");
        assert_eq!((locked.0, locked.1), (bytes, words), "{mode:?}'s record");
    }
}

/// Crash after the new snapshot is written but before the manifest points
/// at it: recovery must come from the old state (manifest + full logs)
/// and still reconstruct everything.
#[test]
fn checkpoint_crash_mid_snapshot_recovers_from_logs() {
    let script = fixed_script(8);
    let disk = SimDisk::new();
    disk.arm(FaultPlan {
        phase: FaultPhase::MidSnapshot,
        at: 0,
        torn_keep: 0,
    });
    let crashed = {
        let oc = OracleCfg {
            ckpt_after: Some(5),
            ..DET_CFG
        };
        run_workload(&script, &oc, &disk)
    };
    assert!(crashed.killed, "checkpoint fault never fired");
    let report = verify_recovery(&script, &DET_CFG, &disk, &crashed);
    // The manifest was never updated: no snapshot, all records replayed.
    assert_eq!(report.snapshot_clock, 0);
    assert_eq!(report.logical_committed, 5, "all five pre-kill commits");
    assert_eq!(report.stale_skipped, 0);
}

/// Crash after the manifest flips but before the logs truncate: every log
/// record is now stale (`wv ≤` snapshot clock) and must be skipped, not
/// re-applied.
#[test]
fn checkpoint_crash_pre_truncate_skips_stale_records() {
    let script = fixed_script(8);
    let disk = SimDisk::new();
    disk.arm(FaultPlan {
        phase: FaultPhase::PreTruncate,
        at: 0,
        torn_keep: 0,
    });
    let crashed = {
        let oc = OracleCfg {
            ckpt_after: Some(5),
            ..DET_CFG
        };
        run_workload(&script, &oc, &disk)
    };
    assert!(crashed.killed, "checkpoint fault never fired");
    let report = verify_recovery(&script, &DET_CFG, &disk, &crashed);
    assert!(report.snapshot_clock > 0, "recovery must use the snapshot");
    assert_eq!(report.logical_committed, 5);
    assert_eq!(report.records_applied, 0, "every log record is stale");
    assert_eq!(report.stale_skipped, 5);
}

/// A clean checkpoint followed by more commits: recovery = snapshot +
/// replay of only the post-checkpoint records.
#[test]
fn checkpoint_then_more_commits_replays_only_the_suffix() {
    let script = fixed_script(9);
    let disk = SimDisk::new();
    let oc = OracleCfg {
        ckpt_after: Some(4),
        ..DET_CFG
    };
    let crashed = run_workload(&script, &oc, &disk);
    assert!(!crashed.killed);
    let report = verify_recovery(&script, &oc, &disk, &crashed);
    assert!(report.snapshot_clock > 0);
    assert_eq!(report.logical_committed, 9);
    assert_eq!(report.records_applied, 5, "only the post-checkpoint tail");
}

/// A worker whose snapshot predates a checkpoint commits after it. Its
/// ticket is the clock it loads after its locks plus 2, not its old
/// snapshot, so it lands above the snapshot clock, and after a kill
/// recovery replays the record instead of skipping it as stale.
#[test]
fn commit_from_a_pre_checkpoint_snapshot_is_not_stale() {
    static S_X: Site = Site::shared("crash.carry.x");
    let disk = SimDisk::new();
    let rt = StmRuntime::new_durable(MemConfig::small(), config(&DET_CFG), disk.clone());
    let x = rt.alloc_global(8);
    let y = rt.alloc_global(256); // a different line from x
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    a.txn(|tx| tx.write(&S_X, x, 1)); // a's snapshot: this commit's version
    for i in 0..3 {
        b.txn(|tx| tx.write(&S_X, y, 100 + i));
    }
    rt.checkpoint_now();
    disk.arm(FaultPlan {
        phase: FaultPhase::PostFlush,
        at: disk.append_count(),
        torn_keep: 0,
    });
    a.txn(|tx| tx.write(&S_X, x, 77));
    assert!(disk.is_killed(), "the post-checkpoint commit never flushed");
    drop((a, b));
    drop(rt);
    let (rt2, report) = recover(MemConfig::small(), config(&DET_CFG), disk);
    assert!(report.snapshot_clock > 0, "recovery must use the snapshot");
    assert_eq!(report.records_applied, 1, "the post-checkpoint record");
    assert_eq!(report.stale_skipped, 0);
    assert_eq!(rt2.mem().load_private(x), 77);
    assert_eq!(rt2.mem().load_private(y), 102);
}

/// Commits publish at the clock they load plus 2 and leave the clock
/// behind, so records at `clock + 2` sit in the logs when a checkpoint
/// starts. The checkpoint advances the clock by 2 before it reads the
/// snapshot clock: killed after the manifest flips but before the logs
/// truncate, recovery finds every record at or below the snapshot clock
/// and replays none of them over the snapshot.
#[test]
fn a_checkpoint_between_commits_that_leave_the_clock_covers_their_records() {
    static S_L: Site = Site::shared("crash.gv5.line");
    let disk = SimDisk::new();
    let rt = StmRuntime::new_durable(MemConfig::small(), config(&DET_CFG), disk.clone());
    let lines = rt.alloc_global(8 * 64);
    let line = |i: u64| Addr(lines.raw() + i * 64);
    let mut a = rt.spawn_worker();
    let mut b = rt.spawn_worker();
    for i in 0..4 {
        let w = if i % 2 == 0 { &mut a } else { &mut b };
        w.txn(|tx| tx.write(&S_L, line(i), 10 + i));
    }
    assert_eq!(rt.clock_value(), 0, "the commits left the clock at 0");
    disk.arm(FaultPlan {
        phase: FaultPhase::PreTruncate,
        at: 0,
        torn_keep: 0,
    });
    rt.checkpoint_now();
    assert!(disk.is_killed(), "the checkpoint fault never fired");
    drop((a, b));
    drop(rt);
    let (rt2, report) = recover(MemConfig::small(), config(&DET_CFG), disk);
    assert_eq!(
        report.snapshot_clock, 2,
        "the checkpoint advanced the clock"
    );
    assert_eq!(
        (report.records_applied, report.stale_skipped),
        (0, 4),
        "a record at the snapshot clock was replayed over the snapshot"
    );
    for i in 0..4 {
        assert_eq!(rt2.mem().load_private(line(i)), 10 + i);
    }
    assert_eq!(rt2.clock_value(), 2);
}

/// Recycled space orders after its freer. `f` (the higher tid) writes a
/// heap block and frees it; `a` (the lower tid) allocates the same space
/// and fills it with a captured write, a commit that loads an unchanged
/// clock. Recovery replays equal versions in log order, `a`'s log first,
/// so were both records at one version `f`'s stale put would land on
/// `a`'s block. The freeing commit advanced the clock past its version
/// before the block went back to the heap, so `a`'s record lies above
/// `f`'s and recovery holds `a`'s contents.
#[test]
fn reused_space_replays_after_the_commit_that_freed_it() {
    static S_F: Site = Site::shared("crash.gv5.freed");
    const BYTES: u64 = txmem::NURSERY_MAX_BLOCK_BYTES;
    let disk = SimDisk::new();
    let rt = StmRuntime::new_durable(MemConfig::small(), config(&DET_CFG), disk.clone());
    let (slot_f, slot_a) = (rt.alloc_global(64), rt.alloc_global(64));
    let mut a = rt.spawn_worker();
    let mut f = rt.spawn_worker();
    assert!(a.tid() < f.tid());
    let x = f.alloc_raw(BYTES);
    f.store_as(slot_f, x);
    f.txn(|tx| {
        tx.write(&S_F, x, 0xF)?;
        tx.write_as(&S_F, slot_f, Addr(0))?;
        tx.free(x);
        Ok(())
    });
    assert_eq!(
        f.stats.clock_advances, 1,
        "the freeing commit advances the clock"
    );
    disk.arm(FaultPlan {
        phase: FaultPhase::PostFlush,
        at: disk.append_count(),
        torn_keep: 0,
    });
    let y = a.txn(|tx| {
        let y = tx.alloc(BYTES)?;
        tx.write(&S_CAP, y, 0xA)?;
        tx.write_as(&S_F, slot_a, y)?;
        Ok(y)
    });
    assert_eq!(y, x, "the freed block was not handed back");
    assert!(disk.is_killed(), "the reusing commit never flushed");
    drop((a, f));
    drop(rt);
    let (rt2, report) = recover(MemConfig::small(), config(&DET_CFG), disk);
    assert_eq!(report.records_applied, 2);
    assert_eq!(rt2.mem().load_private(slot_a), x.raw());
    assert_eq!(
        rt2.mem().load_private(x),
        0xA,
        "the freer's put replayed over the block's new contents"
    );
}

/// The same order for a freer that takes no lock. `f` (the higher tid)
/// allocates a heap block, fills it and frees it in a nested child: a
/// block of an ancestor level is freed at commit, without a lock, and is
/// still logged as a range under the commit's lock-free ticket. `a` (the
/// lower tid) then reuses the space with a captured fill. The freeing
/// commit's advance is what puts `a`'s record above `f`'s, so recovery
/// holds `a`'s contents.
#[test]
fn reused_space_replays_after_a_lock_free_commit_that_freed_it() {
    static S_F: Site = Site::shared("crash.gv5.freed_lock_free");
    const BYTES: u64 = txmem::NURSERY_MAX_BLOCK_BYTES;
    let disk = SimDisk::new();
    let rt = StmRuntime::new_durable(MemConfig::small(), config(&DET_CFG), disk.clone());
    let slot_a = rt.alloc_global(64);
    let mut a = rt.spawn_worker();
    let mut f = rt.spawn_worker();
    assert!(a.tid() < f.tid());
    let appends = disk.append_count();
    let x = f.txn(|tx| {
        let x = tx.alloc(BYTES)?;
        tx.write(&S_CAP, x, 0xF)?;
        tx.nested(|tx| {
            tx.free(x);
            Ok(())
        })?
        .expect("the child commits");
        Ok(x)
    });
    assert_eq!(f.stats.commits_ro, 1, "the freeing commit took a lock");
    assert_eq!(
        disk.append_count(),
        appends + 1,
        "the freer logged no record"
    );
    assert_eq!(
        f.stats.clock_advances, 1,
        "the freeing commit advances the clock"
    );
    disk.arm(FaultPlan {
        phase: FaultPhase::PostFlush,
        at: disk.append_count(),
        torn_keep: 0,
    });
    let y = a.txn(|tx| {
        let y = tx.alloc(BYTES)?;
        tx.write(&S_CAP, y, 0xA)?;
        tx.write_as(&S_F, slot_a, y)?;
        Ok(y)
    });
    assert_eq!(y, x, "the freed block was not handed back");
    assert!(disk.is_killed(), "the reusing commit never flushed");
    drop((a, f));
    drop(rt);
    let (rt2, report) = recover(MemConfig::small(), config(&DET_CFG), disk);
    assert_eq!(report.records_applied, 2);
    assert_eq!(rt2.mem().load_private(slot_a), x.raw());
    assert_eq!(
        rt2.mem().load_private(x),
        0xA,
        "the freer's range replayed over the block's new contents"
    );
}

/// The background checkpointer compacting logs concurrently with a live
/// worker (the serialization token under real contention): recovery still
/// reconstructs every commit, from a snapshot plus a short log suffix.
#[test]
fn background_checkpointer_compacts_logs_under_load() {
    let script = fixed_script(64);
    let disk = SimDisk::new();
    let rt = StmRuntime::new_durable(MemConfig::small(), config(&DET_CFG), disk.clone());
    let cells = rt.alloc_global(CELLS * 8);
    let slots = rt.alloc_global(SLOTS * 8);
    let ptrs = RefCell::new(vec![0u64; script.len()]);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| rt.checkpoint_loop(2048, &stop));
        let mut w = rt.spawn_worker();
        for (i, t) in script.iter().enumerate() {
            let _ = w.txn_result(|tx| body(tx, t, i, cells, slots, false, &ptrs));
        }
        drop(w);
        // The workload is much faster than the checkpointer's 1 ms poll:
        // hold the loop open until it has seen the over-threshold logs
        // and truncated them, then let it exit.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while disk.log_bytes() >= 2048 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });
    let crashed = Crashed {
        cells,
        slots,
        committed: script.len() as u64,
        ptrs: ptrs.into_inner(),
        killed: false,
        stats: rt.collect_stats(),
    };
    let report = verify_recovery(&script, &DET_CFG, &disk, &crashed);
    assert_eq!(report.logical_committed, 64);
    assert!(
        report.snapshot_clock > 0,
        "64 allocating transactions must have tripped the 2 KiB threshold"
    );
}

/// Run each script on its own worker thread, with its own cells, slots
/// and block ledger, on one durable runtime over `disk`, while
/// `checkpointers` threads run `checkpointer` until every worker has
/// finished its script or stopped at the kill.
fn run_beside_checkpoints(
    scripts: &[Vec<TxnSpec>],
    disk: &Arc<SimDisk>,
    checkpointers: usize,
    checkpointer: impl Fn(&StmRuntime, &AtomicBool) + Sync,
) -> Vec<Crashed> {
    let rt = StmRuntime::new_durable(MemConfig::small(), config(&DET_CFG), disk.clone());
    // Every region before the first commit: a setup allocation is not
    // logged, so one made later could reuse a logged block's space.
    let regions: Vec<_> = scripts
        .iter()
        .map(|_| (rt.alloc_global(CELLS * 8), rt.alloc_global(SLOTS * 8)))
        .collect();
    let stop = AtomicBool::new(false);
    let runs = std::thread::scope(|s| {
        for _ in 0..checkpointers {
            s.spawn(|| checkpointer(&rt, &stop));
        }
        let workers: Vec<_> = scripts
            .iter()
            .zip(regions)
            .map(|(script, (cells, slots))| {
                let rt = &rt;
                s.spawn(move || {
                    let ptrs = RefCell::new(vec![0u64; script.len()]);
                    let mut w = rt.spawn_worker();
                    let mut committed = 0u64;
                    for (i, t) in script.iter().enumerate() {
                        if disk.is_killed() {
                            break;
                        }
                        let r = w.txn_result(|tx| body(tx, t, i, cells, slots, false, &ptrs));
                        committed += u64::from(r.is_ok());
                    }
                    (cells, slots, committed, ptrs.into_inner())
                })
            })
            .collect();
        // Stop the checkpointers before a worker's panic propagates, or
        // the scope would wait for them forever.
        let joined: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Release);
        joined
    });
    let (killed, stats) = (disk.is_killed(), rt.collect_stats());
    runs.into_iter()
        .map(|r| {
            let (cells, slots, committed, ptrs) = r.unwrap();
            Crashed {
                cells,
                slots,
                committed,
                ptrs,
                killed,
                stats,
            }
        })
        .collect()
}

/// Two threads loop `checkpoint_now` beside one committing worker. Only
/// the serialization token keeps the two checkpoints apart: overlapping,
/// one could swap in a manifest naming a snapshot the other has deleted,
/// or the other's snapshot under its own clock. A `PostFlush` kill at
/// each append index of the range must recover the committed prefix.
#[test]
fn concurrent_checkpoints_exclude_each_other() {
    let script = fixed_script(600);
    let mut snapshots = 0;
    for at in 50..450u64 {
        let disk = SimDisk::new();
        disk.arm(FaultPlan {
            phase: FaultPhase::PostFlush,
            at,
            torn_keep: 0,
        });
        let crashed =
            run_beside_checkpoints(std::slice::from_ref(&script), &disk, 2, |rt, stop| {
                while !stop.load(Ordering::Acquire) && !rt.disk().unwrap().is_killed() {
                    rt.checkpoint_now();
                    // Known liveness gap: the token is not fair, and two
                    // checkpointers looping back to back hand it to each
                    // other while the worker, parked at `cm_enter`, never
                    // sees it free. Nothing in the runtime bounds that wait
                    // yet; the pause keeps this test about exclusion.
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
            });
        assert!(crashed[0].killed, "PostFlush@{at} never fired");
        let report = verify_recovery(&script, &DET_CFG, &disk, &crashed[0]);
        snapshots += u64::from(report.snapshot_clock > 0);
    }
    assert!(snapshots > 0, "no recovery started from a snapshot");
}

/// The background checkpointer racing two committing workers on disjoint
/// cells and slots. The second worker's odd transactions are captured
/// only: they allocate and fill a block and write nothing shared, so they
/// append a record while holding no lock. Recovery must hold, word for
/// word, a committed prefix of each worker's script: all of it, or after
/// a kill possibly all but the one commit whose append failed.
#[test]
fn background_checkpoints_race_two_committing_workers() {
    const N: usize = 3000;
    let scripts = [
        fixed_script(N),
        fixed_script(N)
            .into_iter()
            .enumerate()
            .map(|(i, t)| TxnSpec {
                captured_only: i % 2 == 1,
                ..t
            })
            .collect(),
    ];
    let kills = (0..24u64).map(|k| Some(300 + 229 * k));
    let mut snapshots = 0;
    for kill in std::iter::once(None).chain(kills) {
        let disk = SimDisk::new();
        if let Some(at) = kill {
            disk.arm(FaultPlan {
                phase: FaultPhase::PostFlush,
                at,
                torn_keep: 0,
            });
        }
        let crashed = run_beside_checkpoints(&scripts, &disk, 1, |rt, stop| {
            rt.checkpoint_loop(1024, stop)
        });
        let (rt2, report) = recover(MemConfig::small(), config(&DET_CFG), disk);
        snapshots += u64::from(report.snapshot_clock > 0);
        let prefixes = |c: &Crashed| {
            let lost = u64::from(c.killed).min(c.committed);
            (c.committed - lost)..=c.committed
        };
        // Per worker, the prefixes its cells, slots and blocks match; their
        // counts must add up to what recovery reports.
        let mut misses = Vec::new();
        let fitting: Vec<Vec<u64>> = (0..2)
            .map(|w| {
                prefixes(&crashed[w])
                    .filter(|&l| match diff_prefix(&rt2, &scripts[w], &crashed[w], l) {
                        Ok(()) => true,
                        Err(e) => {
                            misses.push(format!("worker {w} at {l}: {e}"));
                            false
                        }
                    })
                    .collect()
            })
            .collect();
        let l = report.logical_committed;
        assert!(
            fitting[0]
                .iter()
                .any(|l0| fitting[1].iter().any(|l1| l0 + l1 == l)),
            "kill {kill:?}: recovered {l} commits of ({}, {}); the workers match \
             the prefixes {fitting:?}:\n{}",
            crashed[0].committed,
            crashed[1].committed,
            misses.join("\n")
        );
    }
    assert!(snapshots > 0, "no recovery started from a snapshot");
}

/// Durable mode is observably transparent: the same script on a transient
/// runtime produces bit-identical memory and identical statistics once
/// the durable telemetry is redacted (`tests/common`).
#[test]
fn durable_mode_is_transparent_to_the_workload() {
    let script = fixed_script(12);
    for nursery in [false, true] {
        let oc = OracleCfg { nursery, ..DET_CFG };
        // Durable run.
        let disk = SimDisk::new();
        let durable = run_workload(&script, &oc, &disk);
        assert!(!durable.killed);

        // Transient run: same config minus durability.
        let cfg = TxConfig {
            durable: false,
            ..config(&oc)
        };
        let rt = StmRuntime::new(MemConfig::small(), cfg);
        let cells = rt.alloc_global(CELLS * 8);
        let slots = rt.alloc_global(SLOTS * 8);
        let ptrs = RefCell::new(vec![0u64; script.len()]);
        {
            let mut w = rt.spawn_worker();
            for (i, t) in script.iter().enumerate() {
                let _ = w.txn_result(|tx| body(tx, t, i, cells, slots, false, &ptrs));
            }
        }
        let transient_ptrs = ptrs.into_inner();

        assert_eq!(durable.cells, cells);
        assert_eq!(durable.slots, slots);
        assert_eq!(
            durable.ptrs, transient_ptrs,
            "allocation placement diverged under durability"
        );
        let sim = simulate(&script, script.len() as u64);
        for c in 0..CELLS as usize {
            assert_eq!(rt.mem().load_private(cells.word(c as u64)), sim.cells[c]);
        }
        assert_eq!(
            common::redacted_debug(
                &durable.stats,
                &[common::Redact::Durable, common::Redact::Contention]
            ),
            common::redacted_debug(
                &rt.collect_stats(),
                &[common::Redact::Durable, common::Redact::Contention]
            ),
            "durability changed the execution, not just the logging"
        );
        assert!(durable.stats.durable_words > 0);
        assert!(
            durable.stats.durable_skipped > 0,
            "captured fills must be skipped from per-word logging: {:?}",
            durable.stats
        );
    }
}

/// Recovery hands back a *working* runtime: new transactions commit, new
/// allocations never collide with recovered blocks, and a second
/// kill-and-recover round-trips the combined history.
#[test]
fn recovered_runtime_keeps_committing_and_recovering() {
    let script = fixed_script(6);
    let disk = SimDisk::new();
    let crashed = run_workload(&script, &DET_CFG, &disk);
    let report = verify_recovery(&script, &DET_CFG, &disk, &crashed);
    assert_eq!(report.logical_committed, 6);

    let (rt2, _) = recover(MemConfig::small(), config(&DET_CFG), disk.clone());
    let live: Vec<u64> = crashed.ptrs.iter().copied().filter(|&p| p != 0).collect();
    let fresh = {
        let mut w = rt2.spawn_worker();
        w.txn(|tx| {
            let p = tx.alloc(BLK_WORDS * 8)?;
            for j in 0..BLK_WORDS {
                tx.write(&S_LOCAL, p.word(j), 4242 + j)?;
            }
            let slot = tx.read(&S_SHARED, crashed.slots)?;
            let _ = slot;
            tx.write(&S_SHARED, crashed.slots, p.raw())?;
            Ok(p)
        })
    };
    for &p in &live {
        let disjoint = fresh.raw() + BLK_WORDS * 8 <= p || p + BLK_WORDS * 8 <= fresh.raw();
        assert!(
            disjoint,
            "fresh block {fresh:?} overlaps recovered block {p:#x}"
        );
    }
    // Second crash-recover cycle over the extended history.
    let (rt3, report3) = recover(MemConfig::small(), config(&DET_CFG), disk);
    assert_eq!(report3.logical_committed, 7);
    assert_eq!(rt3.mem().load_private(crashed.slots), fresh.raw());
    for j in 0..BLK_WORDS {
        assert_eq!(rt3.mem().load_private(fresh.word(j)), 4242 + j);
    }
}

/// Strict-ordering dependency closure across workers: worker B copies
/// worker A's counter into its own mirror cell. Whatever the crash point
/// (every flush phase at every append index), the recovered mirror can
/// never exceed the recovered counter — B's record is only on disk after
/// the A-record it depends on.
#[test]
fn strict_ordering_is_dependency_closed_across_workers() {
    static S_A: Site = Site::shared("crash.dep.counter");
    static S_B: Site = Site::shared("crash.dep.mirror");
    let mut ahead = Vec::new();
    for phase in [
        FaultPhase::PreFlush,
        FaultPhase::TornFlush,
        FaultPhase::PostFlush,
    ] {
        for at in 0..40u64 {
            let disk = SimDisk::new();
            disk.arm(FaultPlan {
                phase,
                at,
                torn_keep: 9,
            });
            let rt = StmRuntime::new_durable(MemConfig::small(), config(&DET_CFG), disk.clone());
            let counter = rt.alloc_global(8);
            let mirror = rt.alloc_global(8);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut w = rt.spawn_worker();
                    while !disk.is_killed() {
                        w.txn(|tx| {
                            let v = tx.read(&S_A, counter)?;
                            tx.write(&S_A, counter, v + 1)
                        });
                    }
                });
                s.spawn(|| {
                    let mut w = rt.spawn_worker();
                    while !disk.is_killed() {
                        w.txn(|tx| {
                            let v = tx.read(&S_A, counter)?;
                            tx.write(&S_B, mirror, v)
                        });
                    }
                });
            });
            let (rt2, _) = recover(MemConfig::small(), config(&DET_CFG), disk);
            let c = rt2.mem().load_private(counter);
            let m = rt2.mem().load_private(mirror);
            if m > c {
                ahead.push(format!("{phase:?} at {at}: counter {c}, mirror {m}"));
            }
        }
    }
    assert!(
        ahead.is_empty(),
        "a dependent record hit disk before its dependency; \
         the mirror outran the counter in {} of 120 crashes:\n{}",
        ahead.len(),
        ahead.join("\n")
    );
}
