//! Exactness oracle for the nursery classification: the nursery's scalar
//! range compares + per-level watermarks, composed with the tree fallback
//! for switched-away and large blocks, must agree with the precise
//! [`capture::RangeTree`] *exactly* — not just conservatively — on every
//! access.
//!
//! The proof is differential: random transaction scripts run under
//! `runtime-tree` with the nursery ON and OFF. Both arms bump every small
//! block from the same held region, so they allocate at the same addresses;
//! only the capture check differs (scalar range vs the tree, which logs
//! every bump block from birth when the nursery is off). If any access
//! ever classified differently (captured vs not, current- vs
//! ancestor-level), the runs would diverge in the barrier counters
//! (`elided_heap`, `parent_captured`, `full`) or — because ancestor
//! misclassification skips undo entries — in committed memory. The
//! scripts drive every nursery transition: bump allocation, region
//! switching via region-filling allocations (overflow demotes to the
//! tree), frees of the top block (bump-back) and below it (dies in
//! place), large blocks on the heap's own allocator, nesting with partial
//! abort, and whole-transaction aborts.

mod common;

use proptest::prelude::*;
use stm::{Abort, CheckScope, LogKind, Mode, Site, StmRuntime, TxConfig};
use txmem::{Addr, MemConfig};

static S_SHARED: Site = Site::shared("nursery.shared");
static S_CAP: Site = Site::captured_escaped("nursery.captured");
static S_LOCAL: Site = Site::captured_local("nursery.local");

const CELLS: u64 = 12;

#[derive(Clone, Debug)]
enum Op {
    /// Small bump allocation.
    Alloc { words: u8 },
    /// Region-filling allocation (rounds to the largest nursery class, so
    /// three of these force a chain and the demotion path).
    AllocBig { words: u16 },
    /// Past-nursery-limit allocation: the heap's own allocator, logged.
    AllocHuge,
    /// Write through a live scratch block (scalar / fallback / ancestor
    /// undo paths, depending on where the block lives).
    WriteScratch { idx: u8, word: u8, val: u64 },
    /// Read a scratch word and publish it to a shared cell.
    PublishScratch { idx: u8, word: u8, cell: u8 },
    /// Free a live scratch block in-transaction: the top of the bump goes
    /// back to the bump pointer, any other bump block dies in place (and,
    /// with the nursery off, leaves the tree).
    Free { idx: u8 },
    /// Full-barrier traffic on shared cells.
    WriteShared { cell: u8, val: u64 },
    /// Stack fast-path round (disjointness check).
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
        3 => (1..6u8).prop_map(|words| Op::Alloc { words }),
        2 => (260..500u16).prop_map(|words| Op::AllocBig { words }),
        1 => Just(Op::AllocHuge),
        3 => (any::<u8>(), any::<u8>(), any::<u64>())
            .prop_map(|(idx, word, val)| Op::WriteScratch { idx, word, val }),
        2 => (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(idx, word, cell)| Op::PublishScratch { idx, word, cell }),
        2 => any::<u8>().prop_map(|idx| Op::Free { idx }),
        1 => (any::<u8>(), any::<u64>()).prop_map(|(cell, val)| Op::WriteShared { cell, val }),
        1 => (1..5u8, any::<u64>(), any::<u8>())
            .prop_map(|(words, val, cell)| Op::StackRound { words, val, cell }),
    ]
}

fn script() -> impl Strategy<Value = Vec<Txn>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(op(), 1..10),
            proptest::collection::vec(op(), 0..6),
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

type Scratch = Vec<(Addr, u16)>;

fn run_ops(
    tx: &mut stm::Tx<'_, '_>,
    base: Addr,
    ops: &[Op],
    scratch: &mut Scratch,
) -> stm::TxResult<()> {
    for op in ops {
        match *op {
            Op::Alloc { words } => {
                let p = tx.alloc(u64::from(words) * 8)?;
                tx.write(&S_LOCAL, p, 0x5EED)?;
                scratch.push((p, u16::from(words)));
            }
            Op::AllocBig { words } => {
                let p = tx.alloc(u64::from(words) * 8)?;
                tx.write(&S_LOCAL, p, 0xB16)?;
                scratch.push((p, words));
            }
            Op::AllocHuge => {
                // 600 words -> 4800 B payload -> 8192 class: past the
                // nursery block limit, the heap's own allocator + the log.
                let p = tx.alloc(600 * 8)?;
                tx.write(&S_LOCAL, p, 0x4065)?;
                scratch.push((p, 600));
            }
            Op::WriteScratch { idx, word, val } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    tx.write(&S_CAP, p.word(u64::from(word) % u64::from(words)), val)?;
                }
            }
            Op::PublishScratch { idx, word, cell } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    let v = tx.read(&S_CAP, p.word(u64::from(word) % u64::from(words)))?;
                    tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), v)?;
                }
            }
            Op::Free { idx } => {
                if !scratch.is_empty() {
                    let (p, _) = scratch.remove(idx as usize % scratch.len());
                    tx.free(p);
                }
            }
            Op::WriteShared { cell, val } => {
                tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), val)?;
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

/// Classification-relevant observables: committed memory values plus every
/// counter the capture verdicts steer. The nursery-only telemetry
/// (`nursery_hits`/`nursery_regions`/`nursery_bytes_recycled`) is excluded
/// by construction — everything else must be bit-identical.
fn run(script: &[Txn], nursery: bool) -> (Vec<u64>, String) {
    let mut cfg = TxConfig::with_mode(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    cfg.orec_log2 = 12;
    cfg.nursery = nursery;
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let base = rt.alloc_global(CELLS * 8);
    let mut w = rt.spawn_worker();
    let mut persisted: Scratch = Vec::new();

    for t in script {
        let mut committed_scratch: Scratch = Vec::new();
        let r: Result<(), u64> = w.txn_result(|tx| {
            let mut scratch: Scratch = Vec::new();
            run_ops(tx, base, &t.ops, &mut scratch)?;
            if !t.nested.is_empty() || t.abort_nested {
                // Snapshot the whole list, not just its length: a partial
                // abort cancels deferred frees of *parent* blocks issued
                // inside the child (they come back to life) while the
                // child's own allocations vanish.
                let snapshot = scratch.clone();
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
                    scratch = snapshot;
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
    let verdict_stats = common::logical_line_with_barriers(&w.stats);
    (mem, verdict_stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The satellite's oracle: nursery classification (range compares +
    // watermarks + fallback composition) agrees exactly with the precise
    // tree across random alloc/free/nest/abort interleavings, including
    // overflow-region spills.
    #[test]
    fn nursery_classification_matches_the_tree_oracle(script in script()) {
        let (mem_off, stats_off) = run(&script, false);
        let (mem_on, stats_on) = run(&script, true);
        prop_assert_eq!(&mem_on, &mem_off, "memory diverged with the nursery");
        prop_assert_eq!(&stats_on, &stats_off, "capture verdicts diverged");
    }
}

/// Deterministic companion: force every nursery transition once and check
/// the nursery was actually in play (guards the property above against
/// passing vacuously with the nursery idle).
#[test]
fn nursery_transitions_all_fire() {
    let script = vec![
        Txn {
            ops: vec![
                Op::AllocBig { words: 400 }, // 4096-class
                Op::AllocBig { words: 400 }, // fills the region
                Op::AllocBig { words: 400 }, // chains (demotes the first two)
                Op::Alloc { words: 4 },
                Op::Alloc { words: 4 },
                Op::Free { idx: 3 }, // dies in place below the top block
                Op::AllocHuge,       // the heap's own allocator
                Op::WriteScratch {
                    idx: 0,
                    word: 0,
                    val: 1,
                },
                Op::PublishScratch {
                    idx: 2,
                    word: 1,
                    cell: 0,
                },
            ],
            nested: vec![
                Op::Alloc { words: 3 },
                Op::WriteScratch {
                    idx: 0,
                    word: 0,
                    val: 2,
                }, // ancestor undo
            ],
            abort_nested: true, // partial abort reclaims the child block
            commit: true,
        },
        Txn {
            // Two 4096-class blocks fill a region, so the third switches
            // to a new one past the huge block's page. The abort lets go
            // of the region it switched to and rewinds the one the worker
            // held.
            ops: vec![
                Op::AllocBig { words: 400 },
                Op::AllocBig { words: 400 },
                Op::AllocHuge,
                Op::AllocBig { words: 400 },
            ],
            nested: vec![],
            abort_nested: false,
            commit: false,
        },
    ];
    let (mem_off, stats_off) = run(&script, false);
    let (mem_on, stats_on) = run(&script, true);
    assert_eq!(mem_on, mem_off);
    assert_eq!(stats_on, stats_off);

    // Re-run nursery-on to inspect the nursery telemetry.
    let mut cfg = TxConfig::with_mode(Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    });
    cfg.nursery = true;
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let base = rt.alloc_global(CELLS * 8);
    let mut w = rt.spawn_worker();
    for t in &script {
        let _: Result<(), u64> = w.txn_result(|tx| {
            let mut scratch: Scratch = Vec::new();
            run_ops(tx, base, &t.ops, &mut scratch)?;
            let nested_ops = &t.nested;
            if !nested_ops.is_empty() {
                let _ = tx.nested(|ntx| {
                    run_ops(ntx, base, nested_ops, &mut scratch)?;
                    Err::<(), _>(Abort::User(9))
                })?;
            }
            if t.commit {
                Ok(())
            } else {
                Err(Abort::User(1))
            }
        });
    }
    let s = w.stats;
    assert!(s.nursery_hits > 0, "no scalar-range hits: {s:?}");
    assert!(s.nursery_regions >= 3, "chaining never happened: {s:?}");
    assert!(
        s.nursery_bytes_recycled > 0,
        "no tail trim or abort recycle: {s:?}"
    );
}
