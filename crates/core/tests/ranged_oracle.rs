//! Differential property test for the ranged barriers: every span
//! operation executed through the ranged API (`read_range`/`write_range`/
//! `copy_range`/`fill_range`) must be **observationally identical** to the
//! same operation executed as a loop over the per-word barriers — same
//! final memory, same `TxStats` (with only the `ranged_*` telemetry
//! redacted, since batching shape is exactly what the two APIs are allowed
//! to differ in).
//!
//! The traces stress every run-classification edge: spans over shared
//! memory crossing many orec stripes, spans wholly inside captured scratch
//! blocks, spans straddling the stack capture boundary (words below `sp`
//! shared, the frame captured), spans across a bump block freed in its
//! transaction (it dies in place: one captured run with the nursery on,
//! captured → shared → captured splits with it off), nested
//! transactions whose ancestor-captured runs need per-word undo, and
//! partial aborts that must restore bit-identically.
//!
//! A second property pins the ranged API itself across pipelines: the
//! monomorphized ranged rows against the reference pipeline's per-word
//! degradation (`reference_dispatch`), mirroring `dispatch_equiv`.

mod common;

use proptest::prelude::*;
use stm::{Abort, CheckScope, LogKind, Mode, Site, StmRuntime, Tx, TxConfig, TxResult, TxStats};
use txmem::{Addr, MemConfig};

static S_SHARED: Site = Site::shared("ranged.shared");
static S_CAP: Site = Site::captured_escaped("ranged.captured");
static S_LOCAL: Site = Site::captured_local("ranged.local");

/// Shared arena size in words — large enough that spans cross several
/// 64-byte orec stripes.
const CELLS: u64 = 96;

#[derive(Clone, Debug)]
enum Op {
    /// Ranged write of a seeded pattern into the shared arena.
    SpanWrite { off: u8, len: u8, seed: u64 },
    /// Ranged read of an arena span, folded (xor) into one shared cell.
    SpanRead { off: u8, len: u8, cell: u8 },
    /// Copy between the arena's disjoint halves.
    SpanCopy { from: u8, to: u8, len: u8 },
    /// Fill an arena span with one value.
    Fill { off: u8, len: u8, val: u64 },
    /// Allocate a captured scratch block, initialized with a ranged write.
    Alloc { words: u8 },
    /// Ranged write inside a live scratch block (ancestor-captured when
    /// the block was allocated by an enclosing level).
    SpanWriteScratch {
        idx: u8,
        off: u8,
        len: u8,
        seed: u64,
    },
    /// Ranged read of a scratch span, folded into a shared cell.
    SpanReadScratch { idx: u8, off: u8, len: u8, cell: u8 },
    /// Free a live scratch block in-transaction.
    Free { idx: u8 },
    /// Push a frame and span `[frame - below, …)`: the words below `sp`
    /// are shared, the frame is captured — the span must split at the
    /// boundary.
    StackSpan {
        words: u8,
        below: u8,
        len: u8,
        seed: u64,
        cell: u8,
    },
    /// Allocate three adjacent bump blocks, free the middle one (it dies
    /// in place), then span all three: one captured run over contiguous
    /// nursery memory with the nursery on, captured → shared → captured
    /// with it off (the freed block left the log).
    DeadSpan { a: u8, c: u8, seed: u64, cell: u8 },
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
        (any::<u8>(), 1..48u8, any::<u64>()).prop_map(|(off, len, seed)| Op::SpanWrite {
            off,
            len,
            seed
        }),
        (any::<u8>(), 1..48u8, any::<u8>()).prop_map(|(off, len, cell)| Op::SpanRead {
            off,
            len,
            cell
        }),
        (any::<u8>(), any::<u8>(), 1..32u8).prop_map(|(from, to, len)| Op::SpanCopy {
            from,
            to,
            len
        }),
        (any::<u8>(), 1..48u8, any::<u64>()).prop_map(|(off, len, val)| Op::Fill { off, len, val }),
        (1..24u8).prop_map(|words| Op::Alloc { words }),
        (any::<u8>(), any::<u8>(), 1..24u8, any::<u64>()).prop_map(|(idx, off, len, seed)| {
            Op::SpanWriteScratch {
                idx,
                off,
                len,
                seed,
            }
        }),
        (any::<u8>(), any::<u8>(), 1..24u8, any::<u8>()).prop_map(|(idx, off, len, cell)| {
            Op::SpanReadScratch {
                idx,
                off,
                len,
                cell,
            }
        }),
        any::<u8>().prop_map(|idx| Op::Free { idx }),
        (2..12u8, 1..8u8, 1..16u8, any::<u64>(), any::<u8>()).prop_map(
            |(words, below, len, seed, cell)| Op::StackSpan {
                words,
                below,
                len,
                seed,
                cell
            }
        ),
        (2..8u8, 2..8u8, any::<u64>(), any::<u8>()).prop_map(|(a, c, seed, cell)| Op::DeadSpan {
            a,
            c,
            seed,
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
        1..5,
    )
}

/// Live scratch blocks of the current transaction: (addr, words).
type Scratch = Vec<(Addr, u8)>;

/// Deterministic per-word pattern for span writes.
fn pat(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Write `vals` at `addr` through the API under test.
fn span_write(
    tx: &mut Tx<'_, '_>,
    site: &'static Site,
    addr: Addr,
    vals: &[u64],
    ranged: bool,
) -> TxResult<()> {
    if ranged {
        tx.write_range(site, addr, vals)
    } else {
        for (k, &v) in vals.iter().enumerate() {
            tx.write(site, addr.word(k as u64), v)?;
        }
        Ok(())
    }
}

/// Read a span through the API under test.
fn span_read(
    tx: &mut Tx<'_, '_>,
    site: &'static Site,
    addr: Addr,
    dst: &mut [u64],
    ranged: bool,
) -> TxResult<()> {
    if ranged {
        tx.read_range(site, addr, dst)
    } else {
        for (k, slot) in dst.iter_mut().enumerate() {
            *slot = tx.read(site, addr.word(k as u64))?;
        }
        Ok(())
    }
}

fn run_ops(
    tx: &mut Tx<'_, '_>,
    base: Addr,
    ops: &[Op],
    scratch: &mut Scratch,
    ranged: bool,
) -> TxResult<()> {
    for op in ops {
        match *op {
            Op::SpanWrite { off, len, seed } => {
                let off = u64::from(off) % CELLS;
                let n = u64::from(len).min(CELLS - off);
                let vals: Vec<u64> = (0..n).map(|k| pat(seed, k)).collect();
                span_write(tx, &S_SHARED, base.word(off), &vals, ranged)?;
            }
            Op::SpanRead { off, len, cell } => {
                let off = u64::from(off) % CELLS;
                let n = u64::from(len).min(CELLS - off);
                let mut dst = vec![0u64; n as usize];
                span_read(tx, &S_SHARED, base.word(off), &mut dst, ranged)?;
                let folded = dst.iter().fold(0u64, |acc, &v| acc ^ v);
                tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), folded)?;
            }
            Op::SpanCopy { from, to, len } => {
                // Keep src in the lower half, dst in the upper: disjoint.
                let half = CELLS / 2;
                let from = u64::from(from) % half;
                let to = half + u64::from(to) % half;
                let n = u64::from(len).min(half - from).min(CELLS - to);
                if ranged {
                    tx.copy_range(&S_SHARED, &S_SHARED, base.word(to), base.word(from), n)?;
                } else {
                    for k in 0..n {
                        let v = tx.read(&S_SHARED, base.word(from + k))?;
                        tx.write(&S_SHARED, base.word(to + k), v)?;
                    }
                }
            }
            Op::Fill { off, len, val } => {
                let off = u64::from(off) % CELLS;
                let n = u64::from(len).min(CELLS - off);
                if ranged {
                    tx.fill_range(&S_SHARED, base.word(off), val, n)?;
                } else {
                    for k in 0..n {
                        tx.write(&S_SHARED, base.word(off + k), val)?;
                    }
                }
            }
            Op::Alloc { words } => {
                let p = tx.alloc(u64::from(words) * 8)?;
                let vals: Vec<u64> = (0..u64::from(words)).map(|k| pat(0x5EED, k)).collect();
                span_write(tx, &S_LOCAL, p, &vals, ranged)?;
                scratch.push((p, words));
            }
            Op::SpanWriteScratch {
                idx,
                off,
                len,
                seed,
            } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    let off = u64::from(off) % u64::from(words);
                    let n = u64::from(len).min(u64::from(words) - off);
                    let vals: Vec<u64> = (0..n).map(|k| pat(seed, k)).collect();
                    span_write(tx, &S_CAP, p.word(off), &vals, ranged)?;
                }
            }
            Op::SpanReadScratch {
                idx,
                off,
                len,
                cell,
            } => {
                if !scratch.is_empty() {
                    let (p, words) = scratch[idx as usize % scratch.len()];
                    let off = u64::from(off) % u64::from(words);
                    let n = u64::from(len).min(u64::from(words) - off);
                    let mut dst = vec![0u64; n as usize];
                    span_read(tx, &S_CAP, p.word(off), &mut dst, ranged)?;
                    let folded = dst.iter().fold(0u64, |acc, &v| acc ^ v);
                    tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), folded)?;
                }
            }
            Op::Free { idx } => {
                if !scratch.is_empty() {
                    let (p, _) = scratch.remove(idx as usize % scratch.len());
                    tx.free(p);
                }
            }
            Op::StackSpan {
                words,
                below,
                len,
                seed,
                cell,
            } => {
                let f = tx.stack_push(words as usize);
                // Span [f - below, …): starts in dead (shared) stack space
                // below sp, crosses into the captured frame.
                let start = Addr::from_raw(f.raw() - u64::from(below) * 8);
                let n = u64::from(len).min(u64::from(below) + u64::from(words));
                let vals: Vec<u64> = (0..n).map(|k| pat(seed, k)).collect();
                span_write(tx, &S_CAP, start, &vals, ranged)?;
                let mut dst = vec![0u64; n as usize];
                span_read(tx, &S_CAP, start, &mut dst, ranged)?;
                let folded = dst.iter().fold(0u64, |acc, &v| acc ^ v);
                tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), folded)?;
                tx.stack_pop(words as usize);
            }
            Op::DeadSpan { a, c, seed, cell } => {
                // A freed bump block stays in the bump region, so spanning
                // it touches no allocator metadata.
                let wa = u64::from(a);
                let wc = u64::from(c);
                let pa = tx.alloc(wa * 8)?;
                let pb = tx.alloc(4 * 8)?;
                let pc = tx.alloc(wc * 8)?;
                let ascending = pb.raw() > pa.raw() && pc.raw() > pb.raw();
                let span_words = (pc.raw().wrapping_sub(pa.raw())) / 8 + wc;
                if ascending && span_words <= 64 {
                    // Fill both live payloads, then free the middle block.
                    let va: Vec<u64> = (0..wa).map(|k| pat(seed, k)).collect();
                    span_write(tx, &S_CAP, pa, &va, ranged)?;
                    let vc: Vec<u64> = (0..wc).map(|k| pat(seed, 100 + k)).collect();
                    span_write(tx, &S_CAP, pc, &vc, ranged)?;
                    tx.free(pb);
                    // Read-only span across the dead block: a write through
                    // it would be a use after free.
                    let mut dst = vec![0u64; span_words as usize];
                    span_read(tx, &S_CAP, pa, &mut dst, ranged)?;
                    let folded = dst.iter().fold(0u64, |acc, &v| acc ^ v);
                    tx.write(&S_SHARED, base.word(u64::from(cell) % CELLS), folded)?;
                } else {
                    tx.free(pb);
                }
                scratch.push((pa, a));
                scratch.push((pc, c));
            }
        }
    }
    Ok(())
}

/// Format the statistics with the `ranged_*` telemetry zeroed: batching
/// shape is the one observable the two APIs legitimately differ in.
fn redacted(stats: &TxStats) -> String {
    common::redacted_debug(stats, &[common::Redact::Ranged, common::Redact::Contention])
}

/// Execute the whole script; returns observable memory (arena + committed
/// scratch blocks), redacted stats, and the ranged-telemetry sum.
fn run(script: &[Txn], c: Config, ranged: bool, reference: bool) -> (Vec<u64>, String, u64) {
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
        // Annotate the head of the arena, so spans straddle the annotated
        // boundary.
        w.add_private_memory_block(base, 8 * 8);
    }
    let mut persisted: Scratch = Vec::new();

    for t in script {
        let mut committed_scratch: Scratch = Vec::new();
        let r: Result<(), u64> = w.txn_result(|tx| {
            let mut scratch: Scratch = Vec::new();
            run_ops(tx, base, &t.ops, &mut scratch, ranged)?;
            if !t.nested.is_empty() || t.abort_nested {
                let checkpoint = scratch.len();
                let abort_nested = t.abort_nested;
                let nested_ops = &t.nested;
                let res = tx.nested(|ntx| {
                    run_ops(ntx, base, nested_ops, &mut scratch, ranged)?;
                    if abort_nested {
                        Err(Abort::User(9))
                    } else {
                        Ok(())
                    }
                })?;
                if res.is_err() {
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
    let ranged_sum = w.stats.ranged_reads
        + w.stats.ranged_writes
        + w.stats.ranged_spans
        + w.stats.ranged_fallbacks;
    (mem, redacted(&w.stats), ranged_sum)
}

/// One configuration under differential test.
#[derive(Clone, Copy, Debug)]
struct Config {
    mode: Mode,
    nursery: bool,
    /// Figure-8 classification: the ranged barriers fall back to the
    /// per-word barrier.
    classify: bool,
    /// Private-memory annotations (paper §3.1.3) on the arena's head; the
    /// ranged barriers fall back to the per-word barrier.
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

/// The configurations under differential test: the three static modes plus
/// every log × a spread of scope masks × nursery on/off. Classification
/// and annotations are crossed with a subset: every static mode, and for
/// each log the full scope, nursery on and off.
fn all_configs() -> Vec<Config> {
    let mut v = vec![
        plain(Mode::Baseline, false),
        plain(Mode::Compiler, false),
        plain(Mode::CompilerInterproc, false),
    ];
    for log in LogKind::ALL {
        // Off, reads-only, writes-only, r+w+stack, r+w+heap, full: every
        // classifier gate (scope.reads/writes/stack/heap) flips somewhere.
        for mask in [0u8, 1, 2, 7, 11, 15] {
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
            Mode::Runtime { scope, .. } => scope == CheckScope::FULL,
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

fn has_span_op(script: &[Txn]) -> bool {
    script.iter().any(|t| !t.ops.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Ranged API ≡ per-word loop, per configuration.
    #[test]
    fn ranged_and_per_word_apis_agree(script in script()) {
        for c in all_configs() {
            let (mem_w, stats_w, ranged_w) = run(&script, c, false, false);
            let (mem_r, stats_r, ranged_r) = run(&script, c, true, false);
            prop_assert_eq!(&mem_w, &mem_r, "memory diverged under {:?}", c);
            prop_assert_eq!(&stats_w, &stats_r, "stats diverged under {:?}", c);
            // The telemetry must prove the ranged side actually batched.
            prop_assert_eq!(ranged_w, 0, "per-word run must not touch ranged counters");
            if has_span_op(&script) {
                prop_assert!(ranged_r > 0, "ranged run recorded no ranged telemetry");
            }
        }
    }

    // Monomorphized ranged rows ≡ reference pipeline's ranged arms.
    #[test]
    fn ranged_mono_and_reference_dispatch_agree(script in script()) {
        for c in all_configs() {
            let (mem_mono, stats_mono, _) = run(&script, c, true, false);
            let (mem_ref, stats_ref, _) = run(&script, c, true, true);
            prop_assert_eq!(&mem_mono, &mem_ref, "memory diverged vs reference under {:?}", c);
            prop_assert_eq!(&stats_mono, &stats_ref, "stats diverged vs reference under {:?}", c);
        }
    }
}

/// The statistics of one committed `runtime_tree_full` transaction that
/// runs `ops` through the ranged API, with the nursery on or off.
fn ranged_stats(ops: &[Op], nursery: bool) -> TxStats {
    let cfg = TxConfig {
        nursery,
        orec_log2: 12,
        ..TxConfig::runtime_tree_full()
    };
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let base = rt.alloc_global(CELLS * 8);
    let mut w = rt.spawn_worker();
    w.txn(|tx| run_ops(tx, base, ops, &mut Vec::new(), true));
    w.stats
}

/// Deterministic spot-check that ranged runs split where they must: with
/// the nursery off, a span over a dead bump block charges captured *and*
/// full counters; with it on, the dead block stays in the scalar range;
/// and stack boundary spans split at `sp`.
#[test]
fn hole_and_stack_spans_split_runs() {
    // Three 4-word blocks, each a 48-byte class (a header and 5 usable
    // words), the middle one freed: the read spans 16 words, A's 5, the
    // dead run of B's header, B's 5 and C's header, then C's first 4.
    let dead = Op::DeadSpan {
        a: 4,
        c: 4,
        seed: 11,
        cell: 0,
    };
    // 4 words below `sp`, then the 6-word frame.
    let stack = Op::StackSpan {
        words: 6,
        below: 4,
        len: 10,
        seed: 7,
        cell: 1,
    };
    let script = vec![Txn {
        ops: vec![dead.clone(), stack.clone()],
        nested: vec![],
        abort_nested: false,
        commit: true,
    }];
    let mode = Mode::Runtime {
        log: LogKind::Tree,
        scope: CheckScope::FULL,
    };
    for nursery in [false, true] {
        let (_, stats, ranged_sum) = run(&script, plain(mode, nursery), true, false);
        assert!(ranged_sum > 0);
        assert!(stats.contains("elided_stack"), "sanity: debug format shape");
        let (_, stats_pw, _) = run(&script, plain(mode, nursery), false, false);
        assert_eq!(stats, stats_pw, "split runs must charge per-word counters");

        // The read is the op's only read; its fills of A and C are one
        // captured run each.
        let s = ranged_stats(std::slice::from_ref(&dead), nursery);
        let (full, captured, read_runs) = (s.reads.full, s.reads.elided_heap, s.ranged_spans - 2);
        if nursery {
            assert_eq!((full, captured, read_runs), (0, 16, 1), "one captured run");
        } else {
            // Freeing B took it out of the tree: its words take full
            // barriers between the captured runs of A and C.
            assert_eq!(
                (full, captured, read_runs),
                (7, 9, 3),
                "captured, full, captured"
            );
        }

        // Written, then read: each direction splits at `sp` into a full
        // run below it and a captured run over the frame.
        let s = ranged_stats(std::slice::from_ref(&stack), nursery);
        assert_eq!((s.reads.full, s.reads.elided_stack), (4, 6));
        assert_eq!((s.writes.full, s.writes.elided_stack), (4 + 1, 6));
        assert_eq!((s.ranged_spans, s.ranged_fallbacks), (4, 0));
    }
}
