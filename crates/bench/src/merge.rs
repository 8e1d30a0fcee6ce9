//! The transaction-merging experiment (`expt merge`): logical-transaction
//! throughput and abort rate as a function of the merge factor, over three
//! drivers that stress different parts of the batch machinery.
//!
//! - `transfer` — a high-rate bank-transfer loop (two shared account
//!   words read+written per logical transaction). Fixed per-commit costs
//!   (GV4 ticket, lock publication, log resets) dominate the tiny
//!   transaction body, so this is where merging pays the most; it is also
//!   the series `expt merge --min-merge-speedup` gates.
//! - `queue` — producer/consumer rounds over the STAMP `TxQueue`: all
//!   threads produce into one queue, then all threads drain it into
//!   per-consumer accumulator cells. Head/tail words are hot, so merged
//!   windows conflict, split, and salvage under fire.
//! - `intruder` — the real STAMP app with its merged packet loop
//!   (`TxConfig::merge_max > 1`), measuring merging on pointer-chasing
//!   collection code rather than a synthetic loop.
//!
//! Emits `BENCH_merge.json` (committed snapshot, like
//! `BENCH_scaling.json`) so future PRs that touch the commit spine or the
//! batch machinery have a merging trajectory to diff against.

use stamp::collections::TxQueue;
use stamp::{Benchmark, Scale};
use stm::{Site, StmRuntime, TxConfig, TxStats};
use txmem::MemConfig;

use crate::report::{scale_name, Cell, Report, Table};
use crate::skew::Rng;
use crate::{median, repeat, share, ExptOpts};

/// The merge-factor axis: unmerged baseline, a shallow batch, the gate's
/// sweet spot, and a wide window that actually splits under contention.
pub const FACTORS: [usize; 4] = [1, 2, 8, 32];

/// The drivers, in row order.
pub const DRIVERS: [&str; 3] = ["transfer", "queue", "intruder"];

static S_ACCT: Site = Site::shared("merge.account");
static S_CELL: Site = Site::shared("merge.cell");

const ACCOUNTS: u64 = 1024;
const SEED_BALANCE: u64 = 10_000;

/// Logical transactions per thread per driver phase — a power of two so
/// every factor in [`FACTORS`] divides it evenly.
fn logical_per_thread(scale: Scale) -> usize {
    match scale {
        Scale::Test => 2_048,
        Scale::Small => 65_536,
        Scale::Full => 262_144,
    }
}

fn merged_cfg(factor: usize) -> TxConfig {
    TxConfig::builder()
        .mode(stm::Mode::Runtime {
            log: stm::LogKind::Tree,
            scope: stm::CheckScope::FULL,
        })
        .merge_max(factor as u32)
        .build()
        .expect("factors are validated at the CLI boundary")
}

/// One timed run of the transfer driver. Every logical transaction moves
/// money between two of [`ACCOUNTS`] accounts; the closing conservation
/// check catches any salvage bug.
fn transfer_once(scale: Scale, factor: usize, threads: usize) -> (f64, TxStats) {
    let per_thread = logical_per_thread(scale);
    let rt = StmRuntime::new(
        MemConfig {
            max_threads: threads.max(1) + 1,
            stack_words: 1 << 10,
            heap_words: 1 << 16,
        },
        merged_cfg(factor),
    );
    let base = rt.alloc_global(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        rt.mem().store(base.word(i), SEED_BALANCE);
    }
    rt.reset_stats();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut rng = Rng(0x9E3779B97F4A7C15 ^ (t as u64 + 1));
                for _ in 0..per_thread / factor {
                    // Pre-draw the window's transfers: a salvage retry
                    // re-runs the same logical index and must redo the
                    // same move.
                    let moves: Vec<(u64, u64, u64)> = (0..factor)
                        .map(|_| {
                            (
                                rng.next_u64() % ACCOUNTS,
                                rng.next_u64() % ACCOUNTS,
                                1 + rng.next_u64() % 9,
                            )
                        })
                        .collect();
                    let run = w.txn_batch(factor, |b| {
                        let (from, to, amt) = moves[b.logical_index() as usize];
                        let f = b.read(&S_ACCT, base.word(from))?;
                        b.write(&S_ACCT, base.word(from), f.wrapping_sub(amt))?;
                        let v = b.read(&S_ACCT, base.word(to))?;
                        b.write(&S_ACCT, base.word(to), v.wrapping_add(amt))?;
                        Ok(true)
                    });
                    assert_eq!(run.committed, factor as u64);
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let total: u64 = (0..ACCOUNTS).map(|i| rt.mem().load(base.word(i))).sum();
    assert_eq!(
        total,
        ACCOUNTS * SEED_BALANCE,
        "merged transfers lost or duplicated money (factor {factor})"
    );
    (seconds, rt.collect_stats())
}

/// One timed run of the queue driver: a produce phase (every thread
/// pushes its work-list into one shared queue) followed by a drain phase
/// (every thread pops into its own accumulator cell until the queue is
/// empty). Conservation of the value sum across both phases is the
/// correctness check.
fn queue_once(scale: Scale, factor: usize, threads: usize) -> (f64, TxStats) {
    // Round down to whole windows so a non-power-of-two `--merge N`
    // factor still produces exactly what the drain phase expects.
    let rounds = logical_per_thread(scale) / factor;
    let per_thread = rounds * factor;
    let total_items = (per_thread * threads) as u64;
    let rt = StmRuntime::new(
        MemConfig {
            max_threads: threads.max(1) + 1,
            stack_words: 1 << 10,
            heap_words: (total_items * 4 + (1 << 12)) as usize,
        },
        merged_cfg(factor),
    );
    let q = TxQueue::create(&rt, total_items + 2);
    let cells = rt.alloc_global(threads.max(1) as u64 * 8);
    let expected: u64 = (0..threads as u64)
        .map(|t| (0..per_thread as u64).map(|i| value_of(t, i)).sum::<u64>())
        .sum();
    rt.reset_stats();
    let start = std::time::Instant::now();
    // Produce phase: merged pushes against a hot tail word.
    std::thread::scope(|s| {
        for t in 0..threads {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut next = 0u64;
                for _ in 0..rounds {
                    let run = w.txn_batch(factor, |b| {
                        let v = value_of(t as u64, next + b.logical_index());
                        q.push(b, v)?;
                        Ok(true)
                    });
                    assert_eq!(run.committed, factor as u64);
                    next += run.committed;
                }
            });
        }
    });
    // Drain phase: merged pops against a hot head word, each value folded
    // into the popping thread's private accumulator cell.
    std::thread::scope(|s| {
        for t in 0..threads {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let cell = cells.word(t as u64);
                if factor > 1 {
                    // A drained "stop" invocation still commits, so a
                    // full window (committed == factor) means the queue
                    // may have more; a short one means it is empty. At
                    // factor 1 every window is "full" by that test, so
                    // the unmerged loop below handles it instead.
                    loop {
                        let run = w.txn_batch(factor, |b| {
                            let Some(v) = q.pop(b)? else {
                                return Ok(false); // drained: stop, still commits
                            };
                            let s = b.read(&S_CELL, cell)?;
                            b.write(&S_CELL, cell, s + v)?;
                            Ok(true)
                        });
                        if run.committed < factor as u64 {
                            break;
                        }
                    }
                } else {
                    loop {
                        let drained = w.txn(|tx| {
                            let Some(v) = q.pop(tx)? else {
                                return Ok(true);
                            };
                            let s = tx.read(&S_CELL, cell)?;
                            tx.write(&S_CELL, cell, s + v)?;
                            Ok(false)
                        });
                        if drained {
                            break;
                        }
                    }
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let drained: u64 = (0..threads as u64)
        .map(|t| rt.mem().load(cells.word(t)))
        .sum();
    assert_eq!(
        drained, expected,
        "queue driver lost or duplicated items (factor {factor})"
    );
    (seconds, rt.collect_stats())
}

fn value_of(thread: u64, i: u64) -> u64 {
    (thread + 1) * 1_000_000 + i
}

/// One timed run of the STAMP intruder app with its merged packet loop.
fn intruder_once(scale: Scale, factor: usize, threads: usize) -> (f64, TxStats) {
    let cfg = merged_cfg(factor);
    let out = Benchmark::Intruder.run(scale, cfg, threads);
    assert!(
        out.verified,
        "intruder failed verification at merge factor {factor}"
    );
    (out.elapsed.as_secs_f64(), out.stats)
}

fn run_driver(driver: &str, scale: Scale, factor: usize, threads: usize) -> (f64, TxStats) {
    match driver {
        "transfer" => transfer_once(scale, factor, threads),
        "queue" => queue_once(scale, factor, threads),
        "intruder" => intruder_once(scale, factor, threads),
        other => panic!("unknown merge driver {other}"),
    }
}

/// Run the matrix over `factors` (usually [`FACTORS`]; `expt merge
/// --merge N` narrows it to `[1, N]`): a `rows` table, driver-major in
/// factor order, and its `speedup_vs_f1` pivot. `logical_per_sec` counts
/// committed *logical* transactions (the work per driver is fixed, so this
/// is the axis merging is supposed to move), `abort_rate` is `aborts /
/// (commits + aborts)` (merging must not buy throughput by exploding the
/// conflict rate), and the first factor of the list — factor 1 by
/// construction — seeds the speedup baseline of the merged rows.
pub fn report(opts: &ExptOpts, factors: &[usize]) -> Report {
    let mut r = Report::new(
        "bench_merge/v2",
        format!(
            "Transaction merging — logical-txn throughput vs. merge factor \
             (scale {}, {} threads, median of {} runs)",
            scale_name(opts.scale),
            opts.threads,
            opts.runs
        ),
        opts,
    );
    let mut t = Table::new("rows", "");
    for driver in DRIVERS {
        let mut base_tput = f64::NAN;
        for &factor in factors {
            let (secs, stats) = repeat(opts.runs, || {
                run_driver(driver, opts.scale, factor, opts.threads)
            });
            let seconds = median(secs);
            let tput = stats.commits as f64 / seconds;
            if factor == factors[0] {
                base_tput = tput;
            }
            t.push(vec![
                ("driver", driver.into()),
                ("factor", factor.into()),
                ("threads", opts.threads.into()),
                ("seconds", Cell::Float(seconds, 6)),
                ("logical_per_sec", Cell::Float(tput, 1)),
                (
                    "abort_rate",
                    Cell::Float(share(stats.aborts, stats.commits + stats.aborts), 4),
                ),
                ("speedup_vs_f1", Cell::Float(tput / base_tput, 3)),
                ("commits", stats.commits.into()),
                ("aborts", stats.aborts.into()),
                ("merged_txns", stats.merged_txns.into()),
                ("merge_splits", stats.merge_splits.into()),
                ("merge_salvaged", stats.merge_salvaged.into()),
                ("backoff_waits", stats.backoff_waits.into()),
            ]);
        }
    }
    r.tables
        .push(t.pivot("speedup", &["driver"], "factor", "speedup_vs_f1"));
    r.tables.insert(0, t);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate, verdict};

    /// One run of the full matrix at Test scale, shared by the tests; CI
    /// additionally smokes it through `expt merge --scale test`.
    fn matrix() -> &'static Report {
        static R: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        R.get_or_init(|| report(&ExptOpts::test(2), &FACTORS))
    }

    // The rows keep the keys, in order, of `bench_merge/v1`.
    #[test]
    fn json_is_balanced_and_carries_the_schema() {
        assert!(matrix()
            .json()
            .starts_with("{\n  \"schema\": \"bench_merge/v2\",\n"));
        assert_eq!(
            matrix().tables[0].columns.join(" "),
            "driver factor threads seconds logical_per_sec abort_rate speedup_vs_f1 commits \
             aborts merged_txns merge_splits merge_salvaged backoff_waits"
        );
    }

    #[test]
    fn rows_cover_drivers_and_factors() {
        let r = matrix();
        let t = &r.tables[0];
        assert_eq!(t.rows.len(), DRIVERS.len() * FACTORS.len());
        assert_eq!(r.tables[1].columns.len(), 1 + FACTORS.len());
        for driver in DRIVERS {
            for factor in FACTORS {
                let f = factor.to_string();
                let at = |column| {
                    t.value(&[("driver", driver), ("factor", &f)], column)
                        .unwrap()
                };
                assert!(at("seconds") >= 0.0 && at("logical_per_sec") > 0.0);
                assert!((0.0..=1.0).contains(&at("abort_rate")));
                if factor > 1 {
                    assert!(at("merged_txns") > 0.0, "{driver} x{factor} must merge");
                } else {
                    assert_eq!(at("merged_txns"), 0.0);
                    // Factor-1 rows seed their own speedup baseline.
                    assert!((at("speedup_vs_f1") - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    // `--min-merge-speedup` judges this report's transfer speedup at
    // factor 8, or at the `--merge` factor.
    #[test]
    fn gate_passes_and_fails() {
        let (g, r) = (gate("--min-merge-speedup"), matrix());
        for merge in [None, Some(2), Some(32)] {
            let f = merge.unwrap_or(8).to_string();
            let speedup = r.tables[0]
                .value(&[("driver", "transfer"), ("factor", &f)], "speedup_vs_f1")
                .unwrap();
            assert_eq!(verdict(g, speedup * 0.5, r, merge), Ok(speedup));
            assert!(verdict(g, speedup + 1.0, r, merge).is_err());
        }
        // Factor 4 was not swept.
        assert!(verdict(g, 0.0, r, Some(4)).is_err());
    }
}
