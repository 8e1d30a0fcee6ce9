//! The barrier microbenchmark (`expt barriers`), two tables measured in
//! the same interleaved rounds.
//!
//! `barrier_dispatch` is the per-access cost of every barrier path, pinned
//! against the uninstrumented `load_direct`/`store_direct` floor. It is the
//! measurement behind the dispatch refactor's acceptance bar: with
//! mode/log dispatch hoisted to runtime construction, the captured-access
//! fast path must sit within a small constant of a raw access — and
//! measurably below the enum-dispatch reference pipeline
//! (`TxConfig::reference_dispatch`), which re-decides the mode per access
//! the way the pre-refactor barriers did.
//!
//! `log_costs` prices the runtime capture analysis per log the way paper
//! §3.1 accounts for it: a *keep* per allocated block (`on_alloc`,
//! `on_free`, `reset`), a *hit* per captured access (the barrier it
//! skips), and a *miss* per shared access (the failed check in front of
//! the full barrier), beside Baseline's keep and full barrier.

use std::time::Instant;

use crate::report::{Cell, Report, Table};
use crate::{median, ExptOpts};

use stamp::SplitMix64;
use stm::{CheckScope, LogKind, Mode, Site, StmRuntime, Tx, TxConfig, TxResult};
use txmem::{Addr, MemConfig};

static S_SHARED: Site = Site::shared("micro.shared");
static S_CAP: Site = Site::captured_escaped("micro.captured");

/// Words accessed per transaction (amortizes begin/commit cost).
const WORDS: u64 = 256;

/// Every measured loop body performs one write and one read per word, so
/// per-access numbers divide by twice the word count.
const ACCESSES_PER_TXN: u64 = WORDS * 2;

/// Blocks a `log_costs` transaction holds at once: past the array log's
/// four inline slots, so every log keeps more than it can inline.
const LIVE_BLOCKS: u64 = 16;

/// Payload bytes of each of those blocks: one 64-byte size class.
const BLOCK_BYTES: u64 = 56;

/// Reads per transaction in the `full read, scattered` rows.
const SCATTER_READS: u64 = 64;

/// Address space for the scattered rows: 8 MiB of heap, so the 4 MiB
/// working set fits with room for the allocator's metadata.
fn scatter_mem() -> MemConfig {
    MemConfig {
        heap_words: 1 << 20,
        ..MemConfig::small()
    }
}

/// Options for one microbenchmark run.
#[derive(Clone, Copy, Debug)]
pub struct MicroOpts {
    /// Timed samples per measurement (median is reported).
    pub samples: usize,
    /// Transactions per sample.
    pub txns_per_sample: usize,
}

impl Default for MicroOpts {
    fn default() -> Self {
        MicroOpts {
            samples: 15,
            txns_per_sample: 64,
        }
    }
}

impl MicroOpts {
    /// Tiny run for smoke tests.
    pub fn smoke() -> MicroOpts {
        MicroOpts {
            samples: 3,
            txns_per_sample: 2,
        }
    }
}

/// One interleaved measurement row: a named transaction body bound to its
/// own (leaked — this is a one-shot bench process) runtime + worker.
struct Row {
    name: String,
    run: Box<dyn FnMut()>,
    /// Word accesses one `run` performs — the per-access divisor. The
    /// ranged span-1024 rows touch more words per transaction than the
    /// per-word rows, so the divisor is per row rather than global.
    accesses: u64,
}

/// Measure all rows **interleaved**: every sampling round times one batch
/// of each row back to back, and each row reports the median of its own
/// per-round timings. Sequential per-row measurement (the previous shape)
/// let machine-load drift hit rows unequally — on a busy 1-core container
/// that skews cross-row *ratios*, which are exactly what the acceptance
/// gates consume. With interleaving, a slow period inflates every row of
/// that round together and the medians stay comparable.
fn measure_interleaved(opts: &MicroOpts, mut rows: Vec<Row>) -> Vec<(String, f64)> {
    // Warm-up: fill allocator caches, fault memory, train the predictor.
    for row in &mut rows {
        for _ in 0..opts.txns_per_sample {
            (row.run)();
        }
    }
    let mut samples = vec![Vec::with_capacity(opts.samples); rows.len()];
    for _ in 0..opts.samples {
        for (row, samples) in rows.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            for _ in 0..opts.txns_per_sample {
                (row.run)();
            }
            samples.push(
                t0.elapsed().as_nanos() as f64
                    / (opts.txns_per_sample as u64 * row.accesses) as f64,
            );
        }
    }
    rows.into_iter()
        .zip(samples)
        .map(|(r, samples)| (r.name, median(samples)))
        .collect()
}

fn runtime_cfg(log: LogKind, reference: bool) -> TxConfig {
    TxConfig {
        reference_dispatch: reference,
        ..TxConfig::with_mode(Mode::Runtime {
            log,
            scope: CheckScope::FULL,
        })
    }
}

fn nursery_cfg(reference: bool) -> TxConfig {
    // Derive from the canonical preset (the documented single source of
    // truth for nursery-on comparisons) so these rows can never drift
    // from what expt/stamp_runner and the tests measure.
    TxConfig {
        reference_dispatch: reference,
        ..TxConfig::runtime_tree_nursery()
    }
}

/// The `full barrier (shared)` body: one write and one read of each of the
/// `WORDS` shared words at `buf`.
fn shared_loop(tx: &mut Tx<'_, '_>, buf: Addr) -> TxResult<u64> {
    let mut acc = 0u64;
    for i in 0..WORDS {
        tx.write(&S_SHARED, buf.word(i), i)?;
        acc = acc.wrapping_add(tx.read(&S_SHARED, buf.word(i))?);
    }
    Ok(std::hint::black_box(acc))
}

/// Run `body` while the transaction holds `LIVE_BLOCKS` blocks it
/// allocated, then free them newest first.
fn holding_blocks(
    tx: &mut Tx<'_, '_>,
    body: impl FnOnce(&mut Tx<'_, '_>) -> TxResult<u64>,
) -> TxResult<u64> {
    let mut blocks = [Addr(0); LIVE_BLOCKS as usize];
    for b in &mut blocks {
        *b = tx.alloc(BLOCK_BYTES)?;
    }
    let acc = body(tx)?;
    for &b in blocks.iter().rev() {
        tx.free(b);
    }
    Ok(acc)
}

/// The `log_costs` arms: Baseline, each runtime log with the nursery off,
/// and the nursery preset.
fn cost_arms() -> impl Iterator<Item = (&'static str, TxConfig)> {
    std::iter::once(("baseline", TxConfig::default()))
        .chain(LogKind::ALL.map(|log| (log.name(), runtime_cfg(log, false))))
        .chain([("nursery", nursery_cfg(false))])
}

/// Measure every row, interleaved, and return the `barrier_dispatch`
/// table (one row per barrier path, in display order) and the
/// `log_costs` table (one row per arm: Baseline, each log, the nursery).
pub fn tables(opts: &MicroOpts) -> [Table; 2] {
    let mut rows: Vec<Row> = Vec::new();
    // Each row leaks its runtime so the worker (and the closure that owns
    // it) can borrow it for 'static; a handful of small simulated heaps
    // for the lifetime of a bench process.
    let mut spawn = |cfg: TxConfig| -> (&'static StmRuntime, stm::WorkerCtx<'static>) {
        let rt: &'static StmRuntime = Box::leak(Box::new(StmRuntime::new(MemConfig::small(), cfg)));
        let w = rt.spawn_worker();
        (rt, w)
    };
    let captured_row =
        |name: String,
         cfg: TxConfig,
         spawn: &mut dyn FnMut(TxConfig) -> (&'static StmRuntime, stm::WorkerCtx<'static>)|
         -> Row {
            let (_, mut w) = spawn(cfg);
            Row {
                name,
                run: Box::new(move || {
                    w.txn(|tx| {
                        let p = tx.alloc(WORDS * 8)?;
                        let mut acc = 0u64;
                        for i in 0..WORDS {
                            tx.write(&S_CAP, p.word(i), i)?;
                            acc = acc.wrapping_add(tx.read(&S_CAP, p.word(i))?);
                        }
                        tx.free(p);
                        Ok(std::hint::black_box(acc))
                    });
                }),
                accesses: ACCESSES_PER_TXN,
            }
        };

    // --- the uninstrumented floor: raw loads/stores of captured memory ---
    {
        let (_, mut w) = spawn(TxConfig::default());
        rows.push(Row {
            name: "direct (load+store, no barrier)".into(),
            run: Box::new(move || {
                w.txn(|tx| {
                    let p = tx.alloc(WORDS * 8)?;
                    let mut acc = 0u64;
                    for i in 0..WORDS {
                        tx.store_direct(p.word(i), i);
                        acc = acc.wrapping_add(tx.load_direct(p.word(i)));
                    }
                    tx.free(p);
                    Ok(std::hint::black_box(acc))
                });
            }),
            accesses: ACCESSES_PER_TXN,
        });
    }

    // --- captured-access fast path, monomorphized, per policy ---
    for log in LogKind::ALL {
        rows.push(captured_row(
            format!("captured heap hit/{}", log.name()),
            runtime_cfg(log, false),
            &mut spawn,
        ));
    }

    // --- the same workload through the typed object layer ---
    // Zero-cost pin: `alloc_buf`/`write_elem`/`read_elem` must lower to
    // the identical inline fast path as the raw `alloc`/`write`/`read`
    // row above (tree log, same block size, same access pattern). Gated
    // against the raw tree row in release runs (`--max-typed-ratio`).
    {
        let (_, mut w) = spawn(runtime_cfg(LogKind::Tree, false));
        rows.push(Row {
            name: "captured heap hit/tree (typed)".into(),
            run: Box::new(move || {
                w.txn(|tx| {
                    let b = tx.alloc_buf::<u64>(WORDS)?;
                    let mut acc = 0u64;
                    for i in 0..WORDS {
                        tx.write_elem(&S_CAP, b, i, i)?;
                        acc = acc.wrapping_add(tx.read_elem(&S_CAP, b, i)?);
                    }
                    tx.free_buf(b);
                    Ok(std::hint::black_box(acc))
                });
            }),
            accesses: ACCESSES_PER_TXN,
        });
    }

    // --- nursery bump region: the two-compare captured-heap check ---
    for reference in [false, true] {
        rows.push(captured_row(
            if reference {
                "captured heap hit/nursery (reference dispatch)".into()
            } else {
                "captured heap hit/nursery".into()
            },
            nursery_cfg(reference),
            &mut spawn,
        ));
    }

    // --- the same, through the enum-dispatch reference pipeline ---
    for log in LogKind::ALL {
        rows.push(captured_row(
            format!("captured heap hit/{} (reference dispatch)", log.name()),
            runtime_cfg(log, true),
            &mut spawn,
        ));
    }

    // --- stack-captured fast path (one range compare) ---
    {
        let (_, mut w) = spawn(runtime_cfg(LogKind::Tree, false));
        rows.push(Row {
            name: "captured stack hit".into(),
            run: Box::new(move || {
                w.txn(|tx| {
                    let f = tx.stack_push(WORDS as usize);
                    let mut acc = 0u64;
                    for i in 0..WORDS {
                        tx.write(&S_CAP, f.word(i), i)?;
                        acc = acc.wrapping_add(tx.read(&S_CAP, f.word(i))?);
                    }
                    tx.stack_pop(WORDS as usize);
                    Ok(std::hint::black_box(acc))
                });
            }),
            accesses: ACCESSES_PER_TXN,
        });
    }

    // --- full STM barrier on shared memory, for scale ---
    {
        let (rt, mut w) = spawn(TxConfig::default());
        let buf = rt.alloc_global(WORDS * 8);
        rows.push(Row {
            name: "full barrier (shared)".into(),
            run: Box::new(move || {
                w.txn(|tx| shared_loop(tx, buf));
            }),
            accesses: ACCESSES_PER_TXN,
        });
    }

    // --- the working-set axis: full reads scattered over many lines ---
    // The row above loops over 256 hot words, so it prices the barrier's
    // instructions and nothing of its metadata's cache footprint. These two
    // read-only rows do `SCATTER_READS` line-granular random reads per
    // transaction over 64 KiB and 4 MiB of shared memory, in ns per read.
    // The order is pre-drawn into the memory itself — one random cycle
    // through every line, each line's first word naming the next — so the
    // reads are dependent, like a walk over a linked index: every read
    // waits for its data line *and* for its record line.
    for (label, lines) in [("64 KiB", 1u64 << 10), ("4 MiB", 1u64 << 16)] {
        let rt: &'static StmRuntime = Box::leak(Box::new(StmRuntime::new(
            scatter_mem(),
            TxConfig::default(),
        )));
        let mut w = rt.spawn_worker();
        let buf = rt.alloc_global(lines * 64);
        let mut order: Vec<u64> = (0..lines).collect();
        let mut rng = SplitMix64::new(lines);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (i, &line) in order.iter().enumerate() {
            let next = order[(i + 1) % order.len()];
            rt.mem().store(buf.offset(line * 64), next);
        }
        let mut at = 0u64;
        let mut run = move || {
            at = w.txn(|tx| {
                let mut line = at;
                for _ in 0..SCATTER_READS {
                    line = tx.read(&S_SHARED, buf.offset(line * 64))?;
                }
                Ok(line)
            });
        };
        // Walk the whole cycle once: the shared warm-up below covers only
        // a 4096-read prefix, and a first touch prices the page, not the
        // read.
        (0..lines / SCATTER_READS).for_each(|_| run());
        rows.push(Row {
            name: format!("full read, scattered {label}"),
            run: Box::new(run),
            accesses: SCATTER_READS,
        });
    }

    // --- ranged barriers: classify once per span instead of per word ---
    // Captured rows pin the bulk-copy lowering (the tentpole's headline
    // number, gated vs the per-word tree row by `--max-ranged-ratio`);
    // shared rows pin the one-orec-per-stripe batching against the
    // per-word full barrier. Ranged rows use a 4096-word block (hence the
    // per-row `accesses` divisor): at 256 words the begin/alloc/commit
    // fixed cost *is* the measurement (the `direct` floor), drowning the
    // per-word span cost these rows exist to track.
    for span in [4u64, 64, 1024] {
        let block = 4096u64.max(span);
        {
            let (_, mut w) = spawn(runtime_cfg(LogKind::Tree, false));
            let mut buf = vec![0u64; span as usize];
            rows.push(Row {
                name: format!("ranged captured span {span}/tree"),
                run: Box::new(move || {
                    w.txn(|tx| {
                        let p = tx.alloc(block * 8)?;
                        let mut acc = 0u64;
                        for s in 0..block / span {
                            tx.write_range(&S_CAP, p.word(s * span), &buf)?;
                            tx.read_range(&S_CAP, p.word(s * span), &mut buf)?;
                            acc = acc.wrapping_add(buf[0]);
                        }
                        tx.free(p);
                        Ok(std::hint::black_box(acc))
                    });
                }),
                accesses: block * 2,
            });
        }
        {
            let (rt, mut w) = spawn(TxConfig::default());
            let gbuf = rt.alloc_global(block * 8);
            let mut buf = vec![0u64; span as usize];
            rows.push(Row {
                name: format!("ranged shared span {span}"),
                run: Box::new(move || {
                    w.txn(|tx| {
                        let mut acc = 0u64;
                        for s in 0..block / span {
                            tx.write_range(&S_SHARED, gbuf.word(s * span), &buf)?;
                            tx.read_range(&S_SHARED, gbuf.word(s * span), &mut buf)?;
                            acc = acc.wrapping_add(buf[0]);
                        }
                        Ok(std::hint::black_box(acc))
                    });
                }),
                accesses: block * 2,
            });
        }
    }

    // --- transaction fixed cost: begin + commit around 0 / 1 / 2 barriers ---
    // The layer the rows above amortize away. Same loops as the
    // benchmark's `stm.worker.{empty,ro1,rw1}_txn_ns` (nursery preset, one
    // shared word); reported in ns per *transaction*, a batch per `run` so
    // the sample timer stays a small term.
    const TXNS_PER_RUN: u64 = 64;
    for (name, barriers) in [("txn_empty", 0), ("txn_ro1", 1), ("txn_rw1", 2)] {
        let (rt, mut w) = spawn(nursery_cfg(false));
        let buf = rt.alloc_global(8);
        rows.push(Row {
            name: name.into(),
            run: Box::new(move || {
                for _ in 0..TXNS_PER_RUN {
                    std::hint::black_box(w.txn(|tx| {
                        if barriers == 0 {
                            return Ok(0);
                        }
                        let x = tx.read(&S_SHARED, buf)?;
                        if barriers == 2 {
                            tx.write(&S_SHARED, buf, x.wrapping_add(1))?;
                        }
                        Ok(x)
                    }));
                }
            }),
            accesses: TXNS_PER_RUN,
        });
    }

    // --- the runtime analysis' prices: keep per block, miss per access ---
    // Measured in the same rounds as the rows above, reported in their own
    // table; the hits are the `captured heap hit/*` rows.
    let dispatch_rows = rows.len();
    for (arm, cfg) in cost_arms() {
        let (_, mut w) = spawn(cfg);
        rows.push(Row {
            name: format!("keep/{arm}"),
            run: Box::new(move || {
                w.txn(|tx| holding_blocks(tx, |_| Ok(0)));
            }),
            accesses: LIVE_BLOCKS,
        });
        if arm != "baseline" {
            let (rt, mut w) = spawn(cfg);
            let buf = rt.alloc_global(WORDS * 8);
            rows.push(Row {
                name: format!("miss/{arm}"),
                run: Box::new(move || {
                    w.txn(|tx| holding_blocks(tx, |tx| shared_loop(tx, buf)));
                }),
                accesses: ACCESSES_PER_TXN,
            });
        }
    }

    // Display order == declaration order; interleaving only affects when
    // each row's batches execute.
    let mut dispatch = measure_interleaved(opts, rows);
    let costs = dispatch.split_off(dispatch_rows);
    let ns = |rows: &[(String, f64)], name: &str| {
        rows.iter().find(|r| r.0 == name).expect("a measured row").1
    };
    let full = ns(&dispatch, "full barrier (shared)");
    let mut log_costs = Table::new(
        "log_costs",
        "Runtime capture analysis: keep per block, hit and miss per access (ns)",
    );
    for (arm, _) in cost_arms() {
        let keep = ns(&costs, &format!("keep/{arm}"));
        // Baseline checks nothing: captured and shared accesses alike take
        // the full barrier. A miss row's transaction is the keep row's plus
        // the shared loop, so the keep transaction's time comes out.
        let (hit, miss) = if arm == "baseline" {
            (full, full)
        } else {
            (
                ns(&dispatch, &format!("captured heap hit/{arm}")),
                ns(&costs, &format!("miss/{arm}"))
                    - keep * LIVE_BLOCKS as f64 / ACCESSES_PER_TXN as f64,
            )
        };
        log_costs.push(vec![
            ("arm", arm.into()),
            ("keep_ns_per_block", Cell::Float(keep, 3)),
            ("hit_ns_per_access", Cell::Float(hit, 3)),
            ("miss_ns_per_access", Cell::Float(miss, 3)),
        ]);
    }
    let mut barrier_dispatch = Table::new("barrier_dispatch", "");
    for (path, ns) in dispatch {
        barrier_dispatch.push(vec![
            ("path", path.into()),
            ("ns_per_access", Cell::Float(ns, 3)),
        ]);
    }
    [barrier_dispatch, log_costs]
}

/// The `barriers` report: the two [`tables`] under their Markdown
/// preamble. `expt bench-json` extends it into the `bench_barriers/v2`
/// snapshot ([`crate::report::bench_report`]).
pub fn report(opts: &ExptOpts, micro: &MicroOpts) -> Report {
    let mut r = Report::new(
        "bench_barrier_dispatch/v1",
        "barrier_dispatch — per-access barrier cost (ns, lower is better)",
        opts,
    );
    r.intro = format!(
        "{WORDS} words per txn, one write + one read each; median of {} samples x {} txns.\n\n\
         `txn_*` rows are ns per whole transaction (begin + commit included).\n\
         `full read, scattered` rows are ns per read: {SCATTER_READS} dependent random \
         line-granular reads per read-only transaction over that much shared memory.\n\n\
         `log_costs`: keep is ns per block of a transaction that allocates {LIVE_BLOCKS} \
         blocks of {BLOCK_BYTES} bytes and frees them newest first (Baseline's is the bump \
         alone); hit is the arm's `captured heap hit` row; miss is ns per access of the \
         `full barrier (shared)` loop run while the transaction holds those {LIVE_BLOCKS} \
         blocks, past the array log's four inline slots, with the keep transaction taken \
         out. Baseline checks nothing, so its hit and miss are its full barrier.",
        micro.samples, micro.txns_per_sample
    );
    r.tables.extend(tables(micro));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_measures_every_path() {
        let [dispatch, costs] = tables(&MicroOpts::smoke());
        assert_eq!(dispatch.rows.len(), 23);
        assert!(dispatch
            .rows
            .iter()
            .all(|r| r[1].value().is_some_and(|ns| ns > 0.0)));
        // Keep, hit and miss for every log and the nursery, beside
        // Baseline's keep and full barrier.
        let arms = ["baseline", "tree", "array", "filtering", "nursery"];
        assert_eq!(costs.rows.len(), arms.len());
        for arm in arms {
            for col in [
                "keep_ns_per_block",
                "hit_ns_per_access",
                "miss_ns_per_access",
            ] {
                let ns = costs.value(&[("arm", arm)], col);
                assert!(ns.is_some_and(|ns| ns > 0.0), "{arm} {col}: {ns:?}");
            }
        }
        // No timing assertion here: debug builds and CI noise make absolute
        // ratios meaningless outside `--release` runs; the gated ratios
        // are `expt`'s RATIOS.
    }

    /// README's "Barrier cost trajectory" table is `BENCH_barriers.json`
    /// at two decimals: each `barrier_dispatch` row beside its `before`
    /// (parent) row.
    #[test]
    fn readme_barrier_table_matches_the_snapshot() {
        // `(path, ns_per_access)` of every row, one per line, the `before`
        // block's first.
        let rows: Vec<(&str, f64)> = include_str!("../../../BENCH_barriers.json")
            .lines()
            .filter_map(|l| l.trim().strip_prefix("{\"path\": \""))
            .map(|l| {
                let (path, ns) = l.split_once("\", \"ns_per_access\": ").unwrap();
                (path, ns.trim_end_matches([',', '}']).parse().unwrap())
            })
            .collect();
        let (parent, now) = rows.split_at(rows.len() / 2);
        let readme = include_str!("../../../README.md");
        let header = "| path | ns/access | parent |\n|---|---:|---:|\n";
        let at = readme.find(header).expect("README barrier table") + header.len();
        let table: Vec<&str> = readme[at..]
            .lines()
            .take_while(|l| l.starts_with('|'))
            .collect();
        assert_eq!(table.len(), now.len(), "README rows vs snapshot rows");
        for ((line, (path, ns)), (ppath, pns)) in table.iter().zip(now).zip(parent) {
            assert_eq!(path, ppath, "snapshot and before disagree on row order");
            assert_eq!(*line, format!("| {path} | {ns:.2} | {pns:.2} |"));
        }
    }
}
