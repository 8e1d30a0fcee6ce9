//! The durability-tax experiment (`expt durability`): what does the
//! durable redo-log commit mode (`TxConfig::durable`) cost, and how much
//! of that cost does the paper's captured-memory analysis claw back?
//!
//! Two drivers bracket the answer:
//!
//! - `shared` — a bank-transfer loop whose every write hits pre-existing
//!   shared memory. Nothing is captured, so every committed word must be
//!   logged: this is the durability worst case and the honest price tag.
//! - `captured` — an allocate-fill-publish loop: each transaction fills a
//!   fresh block through captured barriers and publishes one pointer.
//!   Per-word logging is elided for the entire fill (the block survives,
//!   so it is logged once as a single coalesced content range), and the
//!   reported `skip_ratio` shows the dividend.
//!
//! Each driver runs at three durability modes: `off` (transient
//!   baseline), `strict` (`durable_flush_batch = 1`, a disk append inside
//!   every commit), and `group8` (`durable_flush_batch = 8`, buffered
//!   group commit). The tax of a durable row is its wall time over the
//!   same driver's `off` row.
//!
//! Emits `BENCH_durability.json` (committed snapshot, like
//! `BENCH_merge.json`) so future PRs that touch the commit spine or the
//! redo-log encoder have a durability trajectory to diff against. Each
//! row's `tax_vs_off` is its wall time over its driver's `off` row, and
//! `skip_ratio` is `durable_skipped / (durable_words + durable_skipped)`:
//! the share of committed words the captured-memory analysis kept out of
//! the redo log.

use stamp::Scale;
use stm::{SimDisk, Site, StmRuntime, TxConfig, TxStats};
use txmem::{Addr, MemConfig};

use crate::report::{scale_name, Cell, Report, Table};
use crate::skew::Rng;
use crate::{median, repeat, share, ExptOpts};

/// The durability-mode axis, in row order. `off` must come first: it
/// seeds the tax baseline of the durable rows.
pub const MODES: [&str; 3] = ["off", "strict", "group8"];

/// The drivers, in row order.
pub const DRIVERS: [&str; 2] = ["shared", "captured"];

static S_ACCT: Site = Site::shared("durability.account");
static S_SLOT: Site = Site::shared("durability.slot");
static S_FILL: Site = Site::captured_local("durability.fill");

const ACCOUNTS: u64 = 1024;
const SEED_BALANCE: u64 = 10_000;
const SLOTS: u64 = 256;
const BLK_WORDS: u64 = 16;

/// Logical transactions per thread per driver. Smaller than the merge
/// experiment's axis: durable rows keep their whole redo log in the
/// simulated disk (no checkpointer runs during timing), so the count
/// bounds the log footprint.
fn per_thread(scale: Scale) -> usize {
    match scale {
        Scale::Test => 2_048,
        Scale::Small => 16_384,
        Scale::Full => 65_536,
    }
}

/// `flush_batch` of a mode name; `None` = durability off.
fn mode_flush_batch(mode: &str) -> Option<u32> {
    match mode {
        "off" => None,
        "strict" => Some(1),
        "group8" => Some(8),
        other => panic!("unknown durability mode {other}"),
    }
}

fn durability_cfg(mode: &str) -> TxConfig {
    let mut b = TxConfig::builder().mode(stm::Mode::Runtime {
        log: stm::LogKind::Tree,
        scope: stm::CheckScope::FULL,
    });
    if let Some(batch) = mode_flush_batch(mode) {
        b = b.durable(true).durable_flush_batch(batch);
    }
    b.build().expect("modes are validated at the CLI boundary")
}

/// Build the runtime for a mode: transient, or durable over a fresh
/// in-memory [`SimDisk`]. Returns the disk so callers can report the log
/// footprint.
fn build_runtime(mode: &str, mem: MemConfig) -> (StmRuntime, Option<std::sync::Arc<SimDisk>>) {
    let cfg = durability_cfg(mode);
    if mode_flush_batch(mode).is_some() {
        let disk = SimDisk::new();
        (StmRuntime::new_durable(mem, cfg, disk.clone()), Some(disk))
    } else {
        (StmRuntime::new(mem, cfg), None)
    }
}

/// One timed run of the shared-heavy driver: every logical transaction
/// moves money between two of [`ACCOUNTS`] accounts. The closing
/// conservation check catches any redo-buffer interference with the
/// transactional state.
fn shared_once(scale: Scale, mode: &str, threads: usize) -> (f64, (TxStats, u64)) {
    let mem = MemConfig {
        max_threads: threads.max(1) + 1,
        stack_words: 1 << 10,
        heap_words: 1 << 16,
    };
    let (rt, disk) = build_runtime(mode, mem);
    let base = rt.alloc_global(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        rt.mem().store(base.word(i), SEED_BALANCE);
    }
    rt.reset_stats();
    let n = per_thread(scale);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut rng = Rng(0x9E3779B97F4A7C15 ^ (t as u64 + 1));
                for _ in 0..n {
                    let from = rng.next_u64() % ACCOUNTS;
                    let to = rng.next_u64() % ACCOUNTS;
                    let amt = 1 + rng.next_u64() % 9;
                    w.txn(|tx| {
                        let f = tx.read(&S_ACCT, base.word(from))?;
                        tx.write(&S_ACCT, base.word(from), f.wrapping_sub(amt))?;
                        let v = tx.read(&S_ACCT, base.word(to))?;
                        tx.write(&S_ACCT, base.word(to), v.wrapping_add(amt))
                    });
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let total: u64 = (0..ACCOUNTS).map(|i| rt.mem().load(base.word(i))).sum();
    assert_eq!(
        total,
        ACCOUNTS * SEED_BALANCE,
        "shared driver lost or duplicated money (mode {mode})"
    );
    let log_bytes = disk.map_or(0, |d| d.log_bytes());
    (seconds, (rt.collect_stats(), log_bytes))
}

/// One timed run of the captured-heavy driver: allocate a block, fill it
/// through captured barriers, publish it into a random slot, free the
/// block it displaced (bounding the live heap at [`SLOTS`] blocks).
fn captured_once(scale: Scale, mode: &str, threads: usize) -> (f64, (TxStats, u64)) {
    let mem = MemConfig {
        max_threads: threads.max(1) + 1,
        stack_words: 1 << 10,
        heap_words: 1 << 18,
    };
    let (rt, disk) = build_runtime(mode, mem);
    let slots = rt.alloc_global(SLOTS * 8);
    rt.reset_stats();
    let n = per_thread(scale);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut rng = Rng(0xA076_1D64_78BD_642F ^ (t as u64 + 1));
                for i in 0..n {
                    let slot = slots.word(rng.next_u64() % SLOTS);
                    let tag = (t as u64 + 1) * 1_000_000_000 + i as u64 * 100;
                    w.txn(|tx| {
                        let b = tx.alloc(BLK_WORDS * 8)?;
                        for j in 0..BLK_WORDS {
                            tx.write(&S_FILL, b.word(j), tag + j)?;
                        }
                        let old = tx.read(&S_SLOT, slot)?;
                        tx.write(&S_SLOT, slot, b.raw())?;
                        if old != 0 {
                            tx.free(Addr(old));
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    // Every published block must be a coherent fill (word j = word 0 + j):
    // a torn publication would mean the redo path leaked into execution.
    for sidx in 0..SLOTS {
        let p = rt.mem().load(slots.word(sidx));
        if p != 0 {
            let w0 = rt.mem().load(Addr(p));
            for j in 1..BLK_WORDS {
                assert_eq!(
                    rt.mem().load(Addr(p).word(j)),
                    w0 + j,
                    "slot {sidx} holds a torn block (mode {mode})"
                );
            }
        }
    }
    let log_bytes = disk.map_or(0, |d| d.log_bytes());
    (seconds, (rt.collect_stats(), log_bytes))
}

fn run_driver(driver: &str, scale: Scale, mode: &str, threads: usize) -> (f64, (TxStats, u64)) {
    match driver {
        "shared" => shared_once(scale, mode, threads),
        "captured" => captured_once(scale, mode, threads),
        other => panic!("unknown durability driver {other}"),
    }
}

/// Run the matrix: a `rows` table, driver-major in [`MODES`] order (each
/// driver's `off` row seeds the tax baseline of its durable rows), and
/// its `tax_vs_off` pivot.
pub fn report(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_durability/v2",
        format!(
            "Durability — redo-log commit tax vs. transient \
             (scale {}, {} threads, median of {} runs)",
            scale_name(opts.scale),
            opts.threads,
            opts.runs
        ),
        opts,
    );
    let mut t = Table::new("rows", "");
    for driver in DRIVERS {
        let mut base_seconds = f64::NAN;
        for mode in MODES {
            let (secs, (stats, log_bytes)) = repeat(opts.runs, || {
                run_driver(driver, opts.scale, mode, opts.threads)
            });
            let seconds = median(secs);
            let logged = stats.durable_words + stats.durable_skipped;
            if mode == "off" {
                base_seconds = seconds;
            }
            t.push(vec![
                ("driver", driver.into()),
                ("mode", mode.into()),
                ("threads", opts.threads.into()),
                ("seconds", Cell::Float(seconds, 6)),
                (
                    "commits_per_sec",
                    Cell::Float(stats.commits as f64 / seconds, 1),
                ),
                ("tax_vs_off", Cell::Float(seconds / base_seconds, 3)),
                (
                    "skip_ratio",
                    Cell::Float(share(stats.durable_skipped, logged), 4),
                ),
                ("log_bytes", log_bytes.into()),
                ("commits", stats.commits.into()),
                ("aborts", stats.aborts.into()),
                ("durable_words", stats.durable_words.into()),
                ("durable_skipped", stats.durable_skipped.into()),
                ("durable_flushes", stats.durable_flushes.into()),
            ]);
        }
    }
    r.tables
        .push(t.pivot("tax", &["driver"], "mode", "tax_vs_off"));
    r.tables.insert(0, t);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate, verdict};

    /// One run of the full matrix at Test scale, shared by the tests; CI
    /// additionally smokes it through `expt durability --scale test`.
    fn matrix() -> &'static Report {
        static R: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        R.get_or_init(|| report(&ExptOpts::test(2)))
    }

    // The rows keep the keys, in order, of `bench_durability/v1`.
    #[test]
    fn json_is_balanced_and_carries_the_schema() {
        assert!(matrix()
            .json()
            .starts_with("{\n  \"schema\": \"bench_durability/v2\",\n"));
        assert_eq!(
            matrix().tables[0].columns.join(" "),
            "driver mode threads seconds commits_per_sec tax_vs_off skip_ratio log_bytes \
             commits aborts durable_words durable_skipped durable_flushes"
        );
    }

    #[test]
    fn rows_cover_drivers_and_modes() {
        let r = matrix();
        let t = &r.tables[0];
        assert_eq!(t.rows.len(), DRIVERS.len() * MODES.len());
        assert_eq!(r.tables[1].rows.len(), DRIVERS.len());
        let v = |driver: &str, mode: &str, column: &str| {
            t.value(&[("driver", driver), ("mode", mode)], column)
                .unwrap()
        };
        for driver in DRIVERS {
            for mode in MODES {
                let at = |column| v(driver, mode, column);
                assert!(at("seconds") >= 0.0 && at("commits_per_sec") > 0.0);
                if mode == "off" {
                    assert!((at("tax_vs_off") - 1.0).abs() < 1e-9);
                    assert_eq!((at("durable_flushes"), at("log_bytes")), (0.0, 0.0));
                } else {
                    assert!(at("durable_flushes") > 0.0 && at("log_bytes") > 0.0);
                    assert!(at("durable_words") > 0.0, "{driver}/{mode}");
                }
            }
        }
        // The captured driver is the dividend: a large share of committed
        // words is kept out of per-word logging (the fill ships once as a
        // coalesced range, which itself counts toward `durable_words`, so
        // the ratio is bounded below 0.5 by construction), and the shared
        // driver (which captures nothing) must skip none.
        for mode in ["strict", "group8"] {
            let skip = v("captured", mode, "skip_ratio");
            assert!(
                skip > 0.3,
                "captured fills must drive the skip ratio: {skip}"
            );
            assert_eq!(v("shared", mode, "durable_skipped"), 0.0);
        }
        // Group commit amortizes appends.
        let (strict, group) = (
            v("shared", "strict", "durable_flushes"),
            v("shared", "group8", "durable_flushes"),
        );
        assert!(
            group < strict,
            "group commit must batch appends: {group} vs {strict}"
        );
    }

    // `--max-durability-tax` judges this report's captured/strict tax.
    #[test]
    fn gate_passes_and_fails() {
        let (g, r) = (gate("--max-durability-tax"), matrix());
        let tax = r.tables[0]
            .value(&[("driver", "captured"), ("mode", "strict")], "tax_vs_off")
            .unwrap();
        assert_eq!(verdict(g, tax + 1.0, r, None), Ok(tax));
        assert!(verdict(g, tax * 0.5, r, None).is_err());
        let empty = Report::new("x/v1", "x", &ExptOpts::default());
        assert!(verdict(g, tax + 1.0, &empty, None).is_err());
    }
}
