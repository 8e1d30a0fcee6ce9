//! Differential property test for the barrier dispatch refactor: the
//! monomorphized pipeline (dispatch table resolved at runtime
//! construction) and the old-style enum-dispatch reference pipeline
//! (`TxConfig::reference_dispatch`) must produce **bit-identical memory
//! states and `BarrierStats`** on randomized transaction traces, for every
//! `LogKind` × every `CheckScope` combination (all 16 scope masks), plus
//! the Baseline and Compiler modes — and, on a subset, with Figure-8
//! classification or private-memory annotations on.
//!
//! The traces exercise every fast path the barriers have: shared
//! reads/writes (full barrier), transaction-local heap blocks (allocation
//! log), in-transaction frees, transaction-local stack frames, and
//! closed-nested transactions whose partial aborts hit the
//! ancestor-captured undo path.

use proptest::prelude::*;
use stm::{Abort, CheckScope, LogKind, Mode, Site, StmRuntime, TxConfig};
use txmem::{Addr, MemConfig};

mod common;

static S_SHARED: Site = Site::shared("equiv.shared");
static S_CAP: Site = Site::captured_escaped("equiv.captured");
static S_LOCAL: Site = Site::captured_local("equiv.local");

const CELLS: u64 = 12;

#[derive(Clone, Debug)]
enum Op {
    /// Full-barrier write to a shared cell.
    WriteShared { cell: u8, val: u64 },
    /// Full-barrier read of one shared cell into another.
    CopyShared { from: u8, to: u8 },
    /// Allocate a captured scratch block (joins the live-scratch list).
    Alloc { words: u8 },
    /// Write through a live scratch block (captured-heap fast path; from a
    /// nested transaction into an outer block this is the
    /// ancestor-captured undo path).
    WriteScratch { idx: u8, word: u8, val: u64 },
    /// Read a scratch word and publish it to a shared cell.
    PublishScratch { idx: u8, word: u8, cell: u8 },
    /// Free a live scratch block in-transaction.
    Free { idx: u8 },
    /// Push a stack frame, write/read it (captured-stack fast path),
    /// publish to a shared cell, pop.
    StackRound { words: u8, val: u64, cell: u8 },
}

#[derive(Clone, Debug)]
struct Txn {
    ops: Vec<Op>,
    nested: Vec<Op>,
    abort_nested: bool,
    commit: bool,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(cell, val)| Op::WriteShared { cell, val }),
        (any::<u8>(), any::<u8>()).prop_map(|(from, to)| Op::CopyShared { from, to }),
        (1..6u8).prop_map(|words| Op::Alloc { words }),
        (any::<u8>(), any::<u8>(), any::<u64>()).prop_map(|(idx, word, val)| Op::WriteScratch {
            idx,
            word,
            val
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(idx, word, cell)| Op::PublishScratch {
            idx,
            word,
            cell
        }),
        any::<u8>().prop_map(|idx| Op::Free { idx }),
        (1..5u8, any::<u64>(), any::<u8>()).prop_map(|(words, val, cell)| Op::StackRound {
            words,
            val,
            cell
        }),
    ]
}

fn script() -> impl Strategy<Value = Vec<Txn>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(op(), 1..7),
            proptest::collection::vec(op(), 0..5),
            any::<bool>(),
            prop_oneof![3 => Just(true), 1 => Just(false)],
        )
            .prop_map(|(ops, nested, abort_nested, commit)| Txn {
                ops,
                nested,
                abort_nested,
                commit,
            }),
        1..6,
    )
}

/// Live scratch blocks of the current transaction: (addr, words).
type Scratch = Vec<(Addr, u8)>;

fn run_ops(
    tx: &mut stm::Tx<'_, '_>,
    base: Addr,
    ops: &[Op],
    scratch: &mut Scratch,
) -> stm::TxResult<()> {
    for op in ops {
        match *op {
            Op::WriteShared { cell, val } => {
                tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), val)?;
            }
            Op::CopyShared { from, to } => {
                let v = tx.read(&S_SHARED, base.word(u64::from(from) % CELLS))?;
                tx.write(&S_SHARED, base.word(u64::from(to) % CELLS), v)?;
            }
            Op::Alloc { words } => {
                let p = tx.alloc(u64::from(words) * 8)?;
                tx.write(&S_LOCAL, p, 0x5EED)?;
                scratch.push((p, words));
            }
            Op::WriteScratch { idx, word, val } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    tx.write(&S_CAP, p.word(u64::from(word % words)), val)?;
                }
            }
            Op::PublishScratch { idx, word, cell } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    let v = tx.read(&S_CAP, p.word(u64::from(word % words)))?;
                    tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), v)?;
                }
            }
            Op::Free { idx } => {
                if !scratch.is_empty() {
                    let (p, _) = scratch.remove(idx as usize % scratch.len());
                    tx.free(p);
                }
            }
            Op::StackRound { words, val, cell } => {
                let f = tx.stack_push(words as usize);
                tx.write(&S_CAP, f, val)?;
                let v = tx.read(&S_CAP, f)?;
                tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), v ^ 0xF00D)?;
                tx.stack_pop(words as usize);
            }
        }
    }
    Ok(())
}

/// Execute the whole script under one configuration; return the observable
/// memory (shared cells + every committed scratch block) and the formatted
/// statistics (every counter, both directions).
fn run(script: &[Txn], c: Config, reference: bool) -> (Vec<u64>, String) {
    let mut cfg = TxConfig::with_mode(c.mode);
    cfg.orec_log2 = 12; // small orec table; single-threaded test
    cfg.nursery = c.nursery;
    cfg.classify = c.classify;
    cfg.annotations = c.annotations;
    cfg.reference_dispatch = reference;
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let base = rt.alloc_global(CELLS * 8);
    let mut w = rt.spawn_worker();
    if c.annotations {
        // Annotate the first shared cells, so the annotation check has
        // something to hit.
        w.add_private_memory_block(base, 3 * 8);
    }
    let mut persisted: Scratch = Vec::new();

    for t in script {
        let mut committed_scratch: Scratch = Vec::new();
        let r: Result<(), u64> = w.txn_result(|tx| {
            let mut scratch: Scratch = Vec::new();
            run_ops(tx, base, &t.ops, &mut scratch)?;
            if !t.nested.is_empty() || t.abort_nested {
                let checkpoint = scratch.len();
                let abort_nested = t.abort_nested;
                let nested_ops = &t.nested;
                let res = tx.nested(|ntx| {
                    run_ops(ntx, base, nested_ops, &mut scratch)?;
                    if abort_nested {
                        Err(Abort::User(9))
                    } else {
                        Ok(())
                    }
                })?;
                if res.is_err() {
                    // Partial abort deallocated the nested blocks.
                    scratch.truncate(checkpoint);
                }
            }
            committed_scratch.clear();
            committed_scratch.extend_from_slice(&scratch);
            if t.commit {
                Ok(())
            } else {
                Err(Abort::User(1))
            }
        });
        if r.is_ok() {
            persisted.extend_from_slice(&committed_scratch);
        }
    }

    let mut mem: Vec<u64> = (0..CELLS).map(|i| w.load(base.word(i))).collect();
    for &(p, words) in &persisted {
        for i in 0..u64::from(words) {
            mem.push(w.load(p.word(i)));
        }
    }
    // Contention/latency telemetry is wall-clock-dependent and legitimately
    // differs between the two pipelines; everything else must be identical.
    let stats = common::redacted_debug(&w.stats, &[common::Redact::Contention]);
    (mem, stats)
}

/// One configuration under differential test.
#[derive(Clone, Copy, Debug)]
struct Config {
    mode: Mode,
    nursery: bool,
    /// Figure-8 classification: every access reaches the out-of-line
    /// barrier's per-word bookkeeping.
    classify: bool,
    /// Private-memory annotations (paper §3.1.3) on a few shared cells.
    annotations: bool,
}

/// A configuration without instrumentation.
fn plain(mode: Mode, nursery: bool) -> Config {
    Config {
        mode,
        nursery,
        classify: false,
        annotations: false,
    }
}

/// Every configuration to differentially test. The nursery only composes
/// with runtime capture analysis, and there it must hold for every
/// fallback log and every scope mask. Classification and annotations are
/// crossed with a subset: every mode, and for each log the full scope and
/// the full scope minus the stack check, nursery on and off.
fn all_configs() -> Vec<Config> {
    let mut v = vec![
        plain(Mode::Baseline, false),
        plain(Mode::Compiler, false),
        plain(Mode::CompilerInterproc, false),
    ];
    for log in LogKind::ALL {
        for mask in 0..16u8 {
            let mode = Mode::Runtime {
                log,
                scope: CheckScope {
                    reads: mask & 1 != 0,
                    writes: mask & 2 != 0,
                    stack: mask & 4 != 0,
                    heap: mask & 8 != 0,
                },
            };
            v.push(plain(mode, false));
            v.push(plain(mode, true));
        }
    }
    let instrumented: Vec<Config> = v
        .iter()
        .filter(|c| match c.mode {
            Mode::Runtime { scope, .. } => scope.reads && scope.writes && scope.heap,
            _ => true,
        })
        .flat_map(|&c| {
            [
                Config {
                    classify: true,
                    ..c
                },
                Config {
                    annotations: true,
                    ..c
                },
            ]
        })
        .collect();
    v.extend(instrumented);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn monomorphized_and_reference_dispatch_agree(script in script()) {
        for c in all_configs() {
            let (mem_mono, stats_mono) = run(&script, c, false);
            let (mem_ref, stats_ref) = run(&script, c, true);
            prop_assert_eq!(&mem_mono, &mem_ref, "memory diverged under {:?}", c);
            prop_assert_eq!(&stats_mono, &stats_ref, "stats diverged under {:?}", c);
        }
    }
}

/// Deterministic spot-check that the scope masks actually vary elision
/// behavior (guards against the property above passing vacuously because
/// some scope bit is ignored by both pipelines).
#[test]
fn scope_masks_change_elision_counts() {
    let script = vec![Txn {
        ops: vec![
            Op::Alloc { words: 4 },
            Op::WriteScratch {
                idx: 0,
                word: 1,
                val: 7,
            },
            Op::PublishScratch {
                idx: 0,
                word: 1,
                cell: 2,
            },
            Op::StackRound {
                words: 2,
                val: 3,
                cell: 4,
            },
        ],
        nested: vec![],
        abort_nested: false,
        commit: true,
    }];
    let full = Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    };
    let off = Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope {
            reads: false,
            writes: false,
            stack: false,
            heap: false,
        },
    };
    let (_, stats_full) = run(&script, plain(full, false), false);
    let (_, stats_off) = run(&script, plain(off, false), false);
    assert_ne!(stats_full, stats_off, "scope must affect elision counters");
    assert!(
        stats_full.contains("elided_heap: 2"),
        "captured write+read must hit the heap fast path: {stats_full}"
    );
    // With the nursery, the same hits are additionally counted as nursery
    // scalar-range verdicts.
    let (_, stats_nur) = run(&script, plain(full, true), false);
    assert!(
        stats_nur.contains("nursery_hits: 3"),
        "alloc-write, scratch write and scratch read must all hit the \
         nursery range test: {stats_nur}"
    );
}
