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
//! redo-log encoder have a durability trajectory to diff against.

use stamp::Scale;
use stm::{SimDisk, Site, StmRuntime, TxConfig, TxStats};
use txmem::{Addr, MemConfig};

use crate::report::{esc, scale_name};
use crate::skew::Rng;
use crate::{median, ExptOpts};

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
fn shared_once(scale: Scale, mode: &str, threads: usize) -> (f64, TxStats, u64) {
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
    (seconds, rt.collect_stats(), log_bytes)
}

/// One timed run of the captured-heavy driver: allocate a block, fill it
/// through captured barriers, publish it into a random slot, free the
/// block it displaced (bounding the live heap at [`SLOTS`] blocks).
fn captured_once(scale: Scale, mode: &str, threads: usize) -> (f64, TxStats, u64) {
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
    (seconds, rt.collect_stats(), log_bytes)
}

/// One measured (driver, mode) cell.
#[derive(Clone, Debug)]
pub struct DurabilityRow {
    pub driver: &'static str,
    pub mode: &'static str,
    pub threads: usize,
    /// Median wall time over `runs` repetitions.
    pub seconds: f64,
    /// Committed transactions per second.
    pub commits_per_sec: f64,
    /// Wall-time ratio against the driver's `off` row (1.0 for `off`
    /// itself): the durability tax.
    pub tax_vs_off: f64,
    /// `durable_skipped / (durable_words + durable_skipped)`: the share
    /// of committed words the captured-memory analysis kept out of the
    /// redo log (0 for `off` rows).
    pub skip_ratio: f64,
    /// Final redo-log footprint on the simulated disk (0 for `off`).
    pub log_bytes: u64,
    pub stats: TxStats,
}

fn run_driver(driver: &str, scale: Scale, mode: &str, threads: usize) -> (f64, TxStats, u64) {
    match driver {
        "shared" => shared_once(scale, mode, threads),
        "captured" => captured_once(scale, mode, threads),
        other => panic!("unknown durability driver {other}"),
    }
}

/// Run the matrix. Rows are driver-major in [`MODES`] order; each
/// driver's `off` row seeds the tax baseline of its durable rows.
pub fn durability_rows(opts: &ExptOpts) -> Vec<DurabilityRow> {
    let threads = opts.threads.max(1);
    let mut rows = Vec::new();
    for driver in DRIVERS {
        let mut base_seconds = f64::NAN;
        for mode in MODES {
            let samples: Vec<(f64, TxStats, u64)> = (0..opts.runs.max(1))
                .map(|_| run_driver(driver, opts.scale, mode, threads))
                .collect();
            let seconds = median(samples.iter().map(|s| s.0).collect());
            let (_, stats, log_bytes) = *samples.last().expect("runs >= 1");
            if mode == "off" {
                base_seconds = seconds;
            }
            let logged = stats.durable_words + stats.durable_skipped;
            rows.push(DurabilityRow {
                driver,
                mode,
                threads,
                seconds,
                commits_per_sec: if seconds > 0.0 {
                    stats.commits as f64 / seconds
                } else {
                    0.0
                },
                tax_vs_off: if base_seconds > 0.0 {
                    seconds / base_seconds
                } else {
                    0.0
                },
                skip_ratio: if logged > 0 {
                    stats.durable_skipped as f64 / logged as f64
                } else {
                    0.0
                },
                log_bytes,
                stats,
            });
        }
    }
    rows
}

/// Render the `BENCH_durability.json` report (hand-written JSON; no serde
/// in the offline container).
pub fn durability_json(opts: &ExptOpts, rows: &[DurabilityRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema\": \"bench_durability/v1\",\n  \"scale\": \"{}\",\n  \"runs\": {},\n",
        scale_name(opts.scale),
        opts.runs.max(1)
    ));
    out.push_str(&format!("  \"debug_build\": {},\n", cfg!(debug_assertions)));
    out.push_str(&format!("  \"threads\": {},\n", opts.threads.max(1)));
    out.push_str(&format!(
        "  \"machine\": {},\n",
        crate::report::machine_json()
    ));
    out.push_str(&format!(
        "  \"modes\": [{}],\n",
        MODES
            .iter()
            .map(|m| format!("\"{m}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"driver\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"seconds\": {:.6}, \"commits_per_sec\": {:.1}, \"tax_vs_off\": {:.3}, \
             \"skip_ratio\": {:.4}, \"log_bytes\": {}, \"commits\": {}, \"aborts\": {}, \
             \"durable_words\": {}, \"durable_skipped\": {}, \"durable_flushes\": {}}}{}\n",
            esc(r.driver),
            esc(r.mode),
            r.threads,
            r.seconds,
            r.commits_per_sec,
            r.tax_vs_off,
            r.skip_ratio,
            r.log_bytes,
            r.stats.commits,
            r.stats.aborts,
            r.stats.durable_words,
            r.stats.durable_skipped,
            r.stats.durable_flushes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Markdown rendering for the terminal: one line per driver, modes as
/// columns, tax and skip-ratio cells.
pub fn render_markdown(opts: &ExptOpts, rows: &[DurabilityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## Durability — redo-log commit tax vs. transient \
         (scale {}, {} threads, median of {} runs)\n\n",
        scale_name(opts.scale),
        opts.threads.max(1),
        opts.runs.max(1)
    ));
    out.push_str("| driver |");
    for m in MODES {
        out.push_str(&format!(" {m} |"));
    }
    out.push_str(" skip ratio |\n|---|");
    for _ in MODES {
        out.push_str("---:|");
    }
    out.push_str("---:|\n");
    for driver in DRIVERS {
        let mut line = format!("| {driver} |");
        for m in MODES {
            match rows.iter().find(|r| r.driver == driver && r.mode == m) {
                Some(r) => line.push_str(&format!(" {:.2}x |", r.tax_vs_off)),
                None => line.push_str(" - |"),
            }
        }
        let skip = rows
            .iter()
            .find(|r| r.driver == driver && r.mode == "strict")
            .map_or(0.0, |r| r.skip_ratio);
        line.push_str(&format!(" {:.1}% |", 100.0 * skip));
        out.push_str(&line);
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Regression gate: `driver` at durability mode `mode` must stay within
/// `max` wall-time tax over the transient baseline. Like the merge gate
/// there is no hardware skip, and the `expt` front end self-skips in
/// debug builds, where the relative cost of the encoder is distorted.
pub fn durability_tax_gate(
    rows: &[DurabilityRow],
    driver: &str,
    mode: &str,
    max: f64,
) -> Result<f64, String> {
    let row = rows
        .iter()
        .find(|r| r.driver == driver && r.mode == mode)
        .ok_or_else(|| format!("no durability row for {driver}/{mode}"))?;
    if row.tax_vs_off <= max {
        Ok(row.tax_vs_off)
    } else {
        Err(format!(
            "{driver}: {mode} durability tax {:.2}x above allowed {max:.2}x",
            row.tax_vs_off
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_row(driver: &'static str, mode: &'static str, tax: f64) -> DurabilityRow {
        DurabilityRow {
            driver,
            mode,
            threads: 4,
            seconds: tax,
            commits_per_sec: 1000.0 / tax,
            tax_vs_off: tax,
            skip_ratio: 0.5,
            log_bytes: 4096,
            stats: TxStats::default(),
        }
    }

    #[test]
    fn gate_passes_and_fails() {
        let rows = vec![
            fake_row("shared", "off", 1.0),
            fake_row("shared", "strict", 1.4),
        ];
        assert_eq!(
            durability_tax_gate(&rows, "shared", "strict", 2.0).unwrap(),
            1.4
        );
        assert!(durability_tax_gate(&rows, "shared", "strict", 1.2).is_err());
        assert!(durability_tax_gate(&rows, "captured", "strict", 2.0).is_err());
    }

    #[test]
    fn json_is_balanced_and_carries_the_schema() {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 2,
            runs: 1,
        };
        let rows = vec![fake_row("shared", "off", 1.0)];
        let json = durability_json(&opts, &rows);
        assert!(json.contains("\"schema\": \"bench_durability/v1\""));
        assert!(json.contains("\"machine\": {\"available_parallelism\": "));
        assert!(json.contains("\"modes\": [\"off\", \"strict\", \"group8\"]"));
        assert!(json.contains("\"skip_ratio\": 0.5000"));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    // One run of the full matrix at Test scale; CI additionally smokes it
    // through `expt durability --scale test`.
    #[test]
    fn rows_cover_drivers_and_modes() {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 2,
            runs: 1,
        };
        let rows = durability_rows(&opts);
        assert_eq!(rows.len(), DRIVERS.len() * MODES.len());
        assert!(!render_markdown(&opts, &rows).is_empty());
        for r in &rows {
            assert!(r.seconds >= 0.0 && r.commits_per_sec > 0.0, "{r:?}");
            if r.mode == "off" {
                assert!((r.tax_vs_off - 1.0).abs() < 1e-9, "{r:?}");
                assert_eq!(r.stats.durable_flushes, 0, "{r:?}");
                assert_eq!(r.log_bytes, 0, "{r:?}");
            } else {
                assert!(r.stats.durable_flushes > 0, "{r:?}");
                assert!(r.log_bytes > 0, "{r:?}");
                assert!(r.stats.durable_words > 0, "{r:?}");
            }
        }
        // The captured driver is the dividend: a large share of committed
        // words is kept out of per-word logging (the fill ships once as a
        // coalesced range, which itself counts toward `durable_words`, so
        // the ratio is bounded below 0.5 by construction), and the shared
        // driver (which captures nothing) must skip none.
        for mode in ["strict", "group8"] {
            let cap = rows
                .iter()
                .find(|r| r.driver == "captured" && r.mode == mode)
                .unwrap();
            assert!(
                cap.skip_ratio > 0.3,
                "captured fills must drive the skip ratio: {cap:?}"
            );
            let sh = rows
                .iter()
                .find(|r| r.driver == "shared" && r.mode == mode)
                .unwrap();
            assert_eq!(sh.stats.durable_skipped, 0, "{sh:?}");
        }
        // Group commit amortizes appends.
        let strict = rows
            .iter()
            .find(|r| r.driver == "shared" && r.mode == "strict")
            .unwrap();
        let group = rows
            .iter()
            .find(|r| r.driver == "shared" && r.mode == "group8")
            .unwrap();
        assert!(
            group.stats.durable_flushes < strict.stats.durable_flushes,
            "group commit must batch appends: {} vs {}",
            group.stats.durable_flushes,
            strict.stats.durable_flushes
        );
    }
}
