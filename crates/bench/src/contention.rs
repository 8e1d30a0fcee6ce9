//! The contention-management experiment (`expt contention`): throughput,
//! abort ratio, and starvation telemetry for the fixed backoff policy vs.
//! the adaptive escalation ladder, over three drivers that create the
//! conflict shapes the ladder was built for.
//!
//! - `hot-word` — every thread increments one shared word. The densest
//!   possible conflict graph: almost every attempt collides, so this is
//!   where backoff quality and the serialization token's worst-case
//!   bound show up first.
//! - `transfer-skew` — bank transfers over a small account array with a
//!   low-index skew (min of two uniform draws), the mixed regime: most
//!   transactions clash over a few hot accounts while a tail runs
//!   conflict-free.
//! - `long-reader` — one thread repeatedly sums the whole account array
//!   in a single transaction while the rest transfer. The scan is the
//!   classic chronic aborter: any concurrent commit invalidates it, and
//!   only karma patience or the serialization token gets it through.
//!
//! Both policy arms run under the *same* deterministic [`ChaosPlan`], so
//! conflicts materialize even on single-core hosts and the comparison is
//! fair: the policies face an identical schedule-perturbation stream.
//!
//! Emits `BENCH_contention.json` (committed snapshot, like
//! `BENCH_merge.json`) so future PRs that touch the abort path or the
//! contention ladder have a starvation trajectory to diff against.

use stamp::Scale;
use stm::{ChaosPlan, ContentionPolicy, Site, StmRuntime, TxConfig, TxStats};
use txmem::MemConfig;

use crate::report::{esc, scale_name};
use crate::skew::Rng;
use crate::{median, ExptOpts};

/// The drivers, in row order.
pub const DRIVERS: [&str; 3] = ["hot-word", "transfer-skew", "long-reader"];

/// The policy axis: the paper's fixed backoff first (it seeds the
/// speedup baseline), then the adaptive ladder.
pub const POLICIES: [ContentionPolicy; 2] = [ContentionPolicy::Backoff, ContentionPolicy::Adaptive];

/// Ladder tuning shared by every driver. Aggressive thresholds (vs. the
/// config defaults) so the karma and serialization tiers actually engage
/// at benchmark scale; [`starvation_gate`] checks the bound they imply.
pub const SERIALIZE_THRESHOLD: u64 = 10;
const KARMA_THRESHOLD: u64 = 3;
const SPIN_TRIES: u32 = 4;

static S_HOT: Site = Site::shared("cm.hot");
static S_ACCT: Site = Site::shared("cm.account");

const ACCOUNTS: u64 = 64;
const SEED_BALANCE: u64 = 1_000;

/// Transactions per thread per driver.
fn per_thread(scale: Scale) -> usize {
    match scale {
        Scale::Test => 512,
        Scale::Small => 8_192,
        Scale::Full => 32_768,
    }
}

/// The shared chaos stream: moderate yield/preempt shares are enough to
/// force mid-transaction overlap (and therefore real conflicts) on
/// single-core hosts, without drowning the timing signal in sleeps.
fn chaos() -> ChaosPlan {
    ChaosPlan {
        yield_share: 40,
        preempt_share: 10,
        ..ChaosPlan::all(0xC0417E57, 4)
    }
}

fn cm_cfg(policy: ContentionPolicy) -> TxConfig {
    TxConfig::builder()
        .mode(stm::Mode::Runtime {
            log: stm::LogKind::Tree,
            scope: stm::CheckScope::FULL,
        })
        .contention_policy(policy)
        .spin_tries(SPIN_TRIES)
        .karma_threshold(KARMA_THRESHOLD)
        .serialize_threshold(SERIALIZE_THRESHOLD)
        .chaos(chaos())
        .build()
        .expect("bench contention config is statically valid")
}

fn new_rt(threads: usize, policy: ContentionPolicy) -> StmRuntime {
    StmRuntime::new(
        MemConfig {
            max_threads: threads + 1,
            stack_words: 1 << 10,
            heap_words: 1 << 16,
        },
        cm_cfg(policy),
    )
}

/// Post-run invariants shared by every driver: the ladder runs exactly
/// once per conflict rollback (it either waits or takes the token), and
/// the fixed policy never escalates.
fn check_ladder(policy: ContentionPolicy, stats: &TxStats) {
    assert_eq!(
        stats.aborts,
        stats.backoff_waits + stats.cm_serializations,
        "every abort backs off or serializes exactly once ({policy:?}): {stats:?}"
    );
    if policy == ContentionPolicy::Backoff {
        assert_eq!(
            stats.cm_serializations + stats.cm_karma_escalations,
            0,
            "the fixed policy must never escalate: {stats:?}"
        );
    }
}

/// One timed run of the hot-word driver; the final counter value is the
/// lost-update check.
fn hot_word_once(scale: Scale, policy: ContentionPolicy, threads: usize) -> (f64, TxStats) {
    let n = per_thread(scale);
    let rt = new_rt(threads, policy);
    let hot = rt.alloc_global(8);
    rt.reset_stats();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                for _ in 0..n {
                    w.txn(|tx| {
                        let v = tx.read(&S_HOT, hot)?;
                        tx.write(&S_HOT, hot, v + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        rt.mem().load(hot),
        (threads * n) as u64,
        "hot-word increments lost under {policy:?}"
    );
    let stats = rt.collect_stats();
    check_ladder(policy, &stats);
    (seconds, stats)
}

/// One timed run of the skewed-transfer driver; conservation of the
/// account sum is the correctness check. The skew (min of two uniform
/// draws) concentrates roughly half the traffic on the lowest-index
/// quarter of the accounts.
fn transfer_skew_once(scale: Scale, policy: ContentionPolicy, threads: usize) -> (f64, TxStats) {
    let n = per_thread(scale);
    let rt = new_rt(threads, policy);
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
                for _ in 0..n {
                    let from = rng.skewed_below(ACCOUNTS);
                    let to = rng.below(ACCOUNTS);
                    let amt = 1 + rng.next_u64() % 9;
                    w.txn(|tx| {
                        let f = tx.read(&S_ACCT, base.word(from))?;
                        tx.write(&S_ACCT, base.word(from), f.wrapping_sub(amt))?;
                        let v = tx.read(&S_ACCT, base.word(to))?;
                        tx.write(&S_ACCT, base.word(to), v.wrapping_add(amt))?;
                        Ok(())
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
        "skewed transfers lost or duplicated money under {policy:?}"
    );
    let stats = rt.collect_stats();
    check_ladder(policy, &stats);
    (seconds, stats)
}

/// One timed run of the long-reader driver: `threads - 1` writers
/// transfer while one reader repeatedly sums all accounts in a single
/// transaction. Every scan that commits must observe the conserved sum.
fn long_reader_once(scale: Scale, policy: ContentionPolicy, threads: usize) -> (f64, TxStats) {
    let writers = threads.max(2) - 1;
    let n = per_thread(scale);
    let scans = n / 4;
    let rt = new_rt(writers + 1, policy);
    let base = rt.alloc_global(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        rt.mem().store(base.word(i), SEED_BALANCE);
    }
    rt.reset_stats();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..writers {
            let rt = &rt;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut rng = Rng(0xDEADBEEFCAFE ^ (t as u64 + 1));
                for _ in 0..n {
                    let from = rng.next_u64() % ACCOUNTS;
                    let to = rng.next_u64() % ACCOUNTS;
                    let amt = 1 + rng.next_u64() % 9;
                    w.txn(|tx| {
                        let f = tx.read(&S_ACCT, base.word(from))?;
                        tx.write(&S_ACCT, base.word(from), f.wrapping_sub(amt))?;
                        let v = tx.read(&S_ACCT, base.word(to))?;
                        tx.write(&S_ACCT, base.word(to), v.wrapping_add(amt))?;
                        Ok(())
                    });
                }
            });
        }
        let rt = &rt;
        s.spawn(move || {
            let mut w = rt.spawn_worker();
            for _ in 0..scans {
                let sum = w.txn(|tx| {
                    let mut acc = 0u64;
                    for i in 0..ACCOUNTS {
                        acc = acc.wrapping_add(tx.read(&S_ACCT, base.word(i))?);
                    }
                    Ok(acc)
                });
                assert_eq!(
                    sum,
                    ACCOUNTS * SEED_BALANCE,
                    "scan saw a torn total under {policy:?}"
                );
            }
        });
    });
    let seconds = start.elapsed().as_secs_f64();
    let total: u64 = (0..ACCOUNTS).map(|i| rt.mem().load(base.word(i))).sum();
    assert_eq!(
        total,
        ACCOUNTS * SEED_BALANCE,
        "long-reader transfers lost or duplicated money under {policy:?}"
    );
    let stats = rt.collect_stats();
    check_ladder(policy, &stats);
    (seconds, stats)
}

/// One measured (driver, policy) cell.
#[derive(Clone, Debug)]
pub struct ContentionRow {
    pub driver: &'static str,
    pub policy: ContentionPolicy,
    pub threads: usize,
    /// Median wall time over `runs` repetitions.
    pub seconds: f64,
    /// Committed top-level transactions per second.
    pub txn_per_sec: f64,
    /// `aborts / (commits + aborts)`.
    pub abort_ratio: f64,
    /// `txn_per_sec / txn_per_sec(Backoff)` within the driver.
    pub speedup_vs_backoff: f64,
    /// Commit-latency percentiles from [`TxStats::latency_hist`] —
    /// bucket upper bounds, so coarse but comparable across arms.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub stats: TxStats,
}

fn run_driver(
    driver: &str,
    scale: Scale,
    policy: ContentionPolicy,
    threads: usize,
) -> (f64, TxStats) {
    match driver {
        "hot-word" => hot_word_once(scale, policy, threads),
        "transfer-skew" => transfer_skew_once(scale, policy, threads),
        "long-reader" => long_reader_once(scale, policy, threads),
        other => panic!("unknown contention driver {other}"),
    }
}

/// Run the matrix. Rows are driver-major in [`POLICIES`] order; the
/// backoff row — first by construction — seeds the adaptive row's
/// speedup baseline.
pub fn contention_rows(opts: &ExptOpts) -> Vec<ContentionRow> {
    let threads = opts.threads.max(2);
    let mut rows = Vec::new();
    for driver in DRIVERS {
        let mut base_tput = f64::NAN;
        for policy in POLICIES {
            let samples: Vec<(f64, TxStats)> = (0..opts.runs.max(1))
                .map(|_| run_driver(driver, opts.scale, policy, threads))
                .collect();
            let seconds = median(samples.iter().map(|s| s.0).collect());
            let stats = samples.last().expect("runs >= 1").1;
            let tput = if seconds > 0.0 {
                stats.commits as f64 / seconds
            } else {
                0.0
            };
            if policy == POLICIES[0] {
                base_tput = tput;
            }
            let attempts = stats.commits + stats.aborts;
            rows.push(ContentionRow {
                driver,
                policy,
                threads,
                seconds,
                txn_per_sec: tput,
                abort_ratio: if attempts > 0 {
                    stats.aborts as f64 / attempts as f64
                } else {
                    0.0
                },
                speedup_vs_backoff: if base_tput > 0.0 {
                    tput / base_tput
                } else {
                    0.0
                },
                p50_ns: stats.latency_pct_ns(0.5),
                p99_ns: stats.latency_pct_ns(0.99),
                stats,
            });
        }
    }
    rows
}

/// Render the `BENCH_contention.json` report (hand-written JSON; no
/// serde in the offline container).
pub fn contention_json(opts: &ExptOpts, rows: &[ContentionRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema\": \"bench_contention/v1\",\n  \"scale\": \"{}\",\n  \"runs\": {},\n",
        scale_name(opts.scale),
        opts.runs.max(1)
    ));
    out.push_str(&format!("  \"debug_build\": {},\n", cfg!(debug_assertions)));
    out.push_str(&format!("  \"threads\": {},\n", opts.threads.max(2)));
    out.push_str(&format!(
        "  \"machine\": {},\n",
        crate::report::machine_json()
    ));
    out.push_str(&format!(
        "  \"serialize_threshold\": {SERIALIZE_THRESHOLD},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"driver\": \"{}\", \"policy\": \"{}\", \"threads\": {}, \
             \"seconds\": {:.6}, \"txn_per_sec\": {:.1}, \"abort_ratio\": {:.4}, \
             \"speedup_vs_backoff\": {:.3}, \"commits\": {}, \"aborts\": {}, \
             \"attempts_max\": {}, \"backoff_waits\": {}, \"cm_karma_escalations\": {}, \
             \"cm_serializations\": {}, \"chaos_injections\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            esc(r.driver),
            r.policy.label(),
            r.threads,
            r.seconds,
            r.txn_per_sec,
            r.abort_ratio,
            r.speedup_vs_backoff,
            r.stats.commits,
            r.stats.aborts,
            r.stats.attempts_max,
            r.stats.backoff_waits,
            r.stats.cm_karma_escalations,
            r.stats.cm_serializations,
            r.stats.chaos_injections,
            r.p50_ns,
            r.p99_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Markdown rendering for the terminal: one row per (driver, policy)
/// with the starvation telemetry the JSON archives.
pub fn render_markdown(opts: &ExptOpts, rows: &[ContentionRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## Contention management — backoff vs. adaptive ladder under identical \
         chaos (scale {}, {} threads, median of {} runs)\n\n",
        scale_name(opts.scale),
        opts.threads.max(2),
        opts.runs.max(1)
    ));
    out.push_str(
        "| driver | policy | txn/s | speedup | abort% | att_max | karma | serial | p50 | p99 |\n",
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.0} | {:.2}x | {:.1}% | {} | {} | {} | {}ns | {}ns |\n",
            r.driver,
            r.policy.label(),
            r.txn_per_sec,
            r.speedup_vs_backoff,
            100.0 * r.abort_ratio,
            r.stats.attempts_max,
            r.stats.cm_karma_escalations,
            r.stats.cm_serializations,
            r.p50_ns,
            r.p99_ns,
        ));
    }
    out.push('\n');
    out
}

/// Regression gate: the adaptive arm of `driver` must reach `min` of the
/// backoff arm's throughput. The ladder buys its starvation bound with
/// extra bookkeeping, so the gate is usually run with a bound *below*
/// 1.0 — the claim is "no throughput collapse", not "always faster".
pub fn adaptive_speedup_gate(
    rows: &[ContentionRow],
    driver: &str,
    min: f64,
) -> Result<f64, String> {
    let row = rows
        .iter()
        .find(|r| r.driver == driver && r.policy == ContentionPolicy::Adaptive)
        .ok_or_else(|| format!("no adaptive contention row for {driver}"))?;
    if row.speedup_vs_backoff >= min {
        Ok(row.speedup_vs_backoff)
    } else {
        Err(format!(
            "{driver}: adaptive throughput {:.2}x of backoff, below required {min:.2}x",
            row.speedup_vs_backoff
        ))
    }
}

/// Starvation gate: every adaptive row's worst per-transaction attempt
/// count must stay within the ladder's liveness bound — once a
/// transaction hits [`SERIALIZE_THRESHOLD`] consecutive aborts it starts
/// bidding for the serialization token, and with `threads` bidders ahead
/// of it the token (whose holder cannot conflict-abort) arrives within a
/// small per-thread number of further rounds. Returns the worst
/// `attempts_max` observed across the adaptive rows.
pub fn starvation_gate(rows: &[ContentionRow]) -> Result<u64, String> {
    let mut worst = 0u64;
    for r in rows
        .iter()
        .filter(|r| r.policy == ContentionPolicy::Adaptive)
    {
        let bound = SERIALIZE_THRESHOLD + 8 * r.threads as u64;
        if r.stats.attempts_max > bound {
            return Err(format!(
                "{}: adaptive attempts_max {} exceeds the liveness bound {bound}",
                r.driver, r.stats.attempts_max
            ));
        }
        worst = worst.max(r.stats.attempts_max);
    }
    if rows.iter().all(|r| r.policy != ContentionPolicy::Adaptive) {
        return Err("no adaptive rows to gate".into());
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_row(driver: &'static str, policy: ContentionPolicy, speedup: f64) -> ContentionRow {
        let mut stats = TxStats::default();
        stats.attempts_max = 5;
        ContentionRow {
            driver,
            policy,
            threads: 4,
            seconds: 1.0 / speedup,
            txn_per_sec: 1000.0 * speedup,
            abort_ratio: 0.05,
            speedup_vs_backoff: speedup,
            p50_ns: 512,
            p99_ns: 4096,
            stats,
        }
    }

    #[test]
    fn gates_pass_and_fail() {
        let rows = vec![
            fake_row("hot-word", ContentionPolicy::Backoff, 1.0),
            fake_row("hot-word", ContentionPolicy::Adaptive, 1.3),
        ];
        assert_eq!(adaptive_speedup_gate(&rows, "hot-word", 0.8).unwrap(), 1.3);
        assert!(adaptive_speedup_gate(&rows, "hot-word", 2.0).is_err());
        assert!(adaptive_speedup_gate(&rows, "long-reader", 0.5).is_err());
        assert_eq!(starvation_gate(&rows).unwrap(), 5);
        let mut starved = rows.clone();
        starved[1].stats.attempts_max = SERIALIZE_THRESHOLD + 8 * 4 + 1;
        assert!(starvation_gate(&starved).is_err());
        assert!(starvation_gate(&rows[..1]).is_err(), "no adaptive rows");
    }

    #[test]
    fn json_is_balanced_and_carries_the_schema() {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 2,
            runs: 1,
        };
        let rows = vec![fake_row("hot-word", ContentionPolicy::Backoff, 1.0)];
        let json = contention_json(&opts, &rows);
        assert!(json.contains("\"schema\": \"bench_contention/v1\""));
        assert!(json.contains("\"policy\": \"backoff\""));
        assert!(json.contains("\"attempts_max\": 5"));
        assert!(json.contains("\"cm_serializations\": 0"));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    // One run of the full matrix at Test scale; CI additionally smokes it
    // through `expt contention --scale test`. The chaos stream makes the
    // conflict (and therefore abort) telemetry deterministic even on
    // single-core hosts, so both gates run here too.
    #[test]
    fn rows_cover_drivers_and_policies() {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 2,
            runs: 1,
        };
        let rows = contention_rows(&opts);
        assert_eq!(rows.len(), DRIVERS.len() * POLICIES.len());
        assert!(!render_markdown(&opts, &rows).is_empty());
        for r in &rows {
            assert!(r.seconds >= 0.0 && r.txn_per_sec > 0.0, "{r:?}");
            assert!((0.0..=1.0).contains(&r.abort_ratio), "{r:?}");
            assert!(
                r.stats.chaos_injections > 0,
                "chaos must actually fire: {r:?}"
            );
            assert!(r.p99_ns >= r.p50_ns, "percentiles must be monotone: {r:?}");
        }
        // Backoff rows seed their own speedup baseline.
        for r in rows
            .iter()
            .filter(|r| r.policy == ContentionPolicy::Backoff)
        {
            assert!((r.speedup_vs_backoff - 1.0).abs() < 1e-9, "{r:?}");
        }
        starvation_gate(&rows).expect("adaptive rows stay within the liveness bound");
    }
}
