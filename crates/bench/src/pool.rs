//! The memory-pool experiment (`expt pool`): drive the `pool` crate's
//! multi-index transactional pool with a zipf-skewed multi-worker
//! workload at up to millions of operations, and report committed
//! throughput plus the pool's own telemetry (evictions, duplicate
//! filtering, live bytes vs. heap bytes).
//!
//! The op mix models a mempool's day: mostly fresh submissions (some of
//! which evict), a steady drain of best-priority items, sporadic
//! removals, repricings, sender purges, and a tail of duplicate
//! resubmissions. Senders follow a Zipf(θ) distribution, so a few hot
//! senders own long chains while the tail stays short.
//!
//! Three arms share the workload generator:
//!
//! - `plain` — one transaction per op under the nursery configuration
//!   (each insert allocates its item + payload transactionally, which is
//!   exactly the captured-memory fast path the paper is about). This arm
//!   is the one `expt pool --min-pool-throughput` gates.
//! - `merge-N` — the same ops through `txn_batch` windows of N
//!   (`--merge N`), descriptors pre-drawn per window so salvage retries
//!   replay identical ops.
//! - `durable` — one transaction per op with the redo-log commit mode on
//!   (`--durable`, group flush batch 8), reporting the log footprint.
//!
//! Every op is drawn from `--seed` *before* the clock starts (per-thread
//! streams, generated up front), so the reported ops/s times the pool and
//! the STM only — not the generator — and the inputs can be varied.
//!
//! Every arm ends with [`pool::TxPool::seq_check`] (index
//! cross-consistency, exact live-byte accounting, budget bound) and an
//! exact reconciliation of the header telemetry against per-thread
//! outcome tallies. Emits `BENCH_pool.json` (committed snapshot, like
//! `BENCH_merge.json`).

use pool::{InsertOutcome, PoolConfig, PoolCounters, TxPool};
use stamp::Scale;
use stm::{SimDisk, StmRuntime, TxConfig, TxObject, TxStats};
use txmem::MemConfig;

use crate::report::{scale_name, Cell, Report, Table};
use crate::skew::{Rng, Zipf};
use crate::{median, repeat, share, ExptOpts};

/// Sender-id domain for the Zipf draw.
const SENDERS: u64 = 1 << 10;
/// Priority domain.
const PRIOS: u64 = 1 << 16;

/// Knobs beyond [`ExptOpts`], wired to `expt pool` flags. `ops` and
/// `budget` of 0 are "scale default" sentinels; [`resolve`] replaces
/// them before the driver runs.
#[derive(Clone, Copy, Debug)]
pub struct PoolOpts {
    /// Total operations across all threads (`--ops`; 0 = scale default).
    pub ops: u64,
    /// Pool live-byte budget (`--budget`; 0 = scale default).
    pub budget: u64,
    /// Zipf exponent of the sender distribution (`--theta`).
    pub theta: f64,
    /// Merge factor; > 1 adds the `merge-N` arm (`--merge N`).
    pub merge: usize,
    /// Add the durable arm (`--durable`).
    pub durable: bool,
    /// Max payload words per item.
    pub payload_max: u64,
    /// Workload seed (`--seed`): every thread's op stream derives from it.
    pub seed: u64,
}

impl Default for PoolOpts {
    fn default() -> Self {
        PoolOpts {
            ops: 0,
            budget: 0,
            theta: 0.8,
            merge: 1,
            durable: false,
            payload_max: 8,
            seed: 1,
        }
    }
}

/// Ops for `--ops 0`, by scale. Full is the issue's "millions" floor.
pub fn default_ops(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 20_000,
        Scale::Small => 200_000,
        Scale::Full => 1_000_000,
    }
}

/// Budget for `--budget 0`, by scale: small enough that the op mix's net
/// growth (~0.2 live items per op at ~200 accounted bytes each) fills it
/// well before the run ends, so every run actually exercises eviction.
pub fn default_budget(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 1 << 14,
        Scale::Small => 1 << 17,
        Scale::Full => 1 << 20,
    }
}

/// Replace the 0 sentinels with the scale defaults. The `expt` front end
/// calls this once; everything below assumes resolved values.
pub fn resolve(opts: &ExptOpts, popts: &PoolOpts) -> PoolOpts {
    PoolOpts {
        ops: if popts.ops == 0 {
            default_ops(opts.scale)
        } else {
            popts.ops
        },
        budget: if popts.budget == 0 {
            default_budget(opts.scale)
        } else {
            popts.budget
        },
        ..*popts
    }
}

/// One workload operation, fully pre-drawn so a merged window can replay
/// it verbatim after a salvage retry.
#[derive(Clone, Copy, Debug)]
enum OpDesc {
    Insert {
        id: u64,
        sender: u64,
        nonce: u64,
        prio: u64,
        payload_words: u64,
    },
    PopBest,
    Remove {
        id: u64,
    },
    Promote {
        id: u64,
        prio: u64,
    },
    RemoveSender {
        sender: u64,
    },
}

/// Sum what ops did into `total`: the fields an op's outcome decides
/// (the rest are the pool's own state, not an op's).
fn tally(total: &mut PoolCounters, o: &PoolCounters) {
    total.inserted += o.inserted;
    total.evicted += o.evicted;
    total.dup_hits += o.dup_hits;
    total.rejected += o.rejected;
    total.popped += o.popped;
    total.removed += o.removed;
    total.promoted += o.promoted;
    total.purged += o.purged;
}

/// Per-thread deterministic op stream. Ids are globally unique by
/// construction (thread tag in the high bits), so only deliberate
/// resubmissions can collide.
struct OpGen<'a> {
    rng: Rng,
    zipf: &'a Zipf,
    thread: u64,
    next_seq: u64,
    next_nonce: u64,
    issued: Vec<u64>,
    payload_words_max: u64,
}

impl<'a> OpGen<'a> {
    fn new(seed: u64, thread: usize, zipf: &'a Zipf, payload_max: u64) -> OpGen<'a> {
        // Odd multiplier, then `| 1`: distinct per (seed, thread), never
        // the all-zero state xorshift cannot leave.
        let state = (seed.wrapping_mul(0x9E3779B97F4A7C15) ^ ((thread as u64 + 1) << 32)) | 1;
        OpGen {
            rng: Rng::new(state),
            zipf,
            thread: thread as u64 + 1,
            next_seq: 0,
            next_nonce: 0,
            issued: Vec::new(),
            payload_words_max: payload_max,
        }
    }

    fn fresh_insert(&mut self) -> OpDesc {
        self.next_seq += 1;
        let id = (self.thread << 40) | self.next_seq;
        self.issued.push(id);
        self.insert_of(id)
    }

    fn insert_of(&mut self, id: u64) -> OpDesc {
        self.next_nonce += 1;
        OpDesc::Insert {
            id,
            sender: self.zipf.sample(&mut self.rng),
            nonce: self.next_nonce,
            prio: self.rng.below(PRIOS),
            payload_words: self.rng.below(self.payload_words_max + 1),
        }
    }

    fn issued_pick(&mut self) -> Option<u64> {
        if self.issued.is_empty() {
            return None;
        }
        let i = self.rng.below(self.issued.len() as u64) as usize;
        Some(self.issued[i])
    }

    /// The first `n` ops of this thread's stream.
    fn stream(mut self, n: usize) -> Vec<OpDesc> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// Draw the next op. Mix: 55% fresh insert, 15% pop-best, 10% remove,
    /// 10% promote, 5% sender purge, 5% duplicate resubmission (an id
    /// drawn from this thread's history — a `Duplicate` if still live, a
    /// legitimate re-insert if it was evicted or drained since).
    fn next_op(&mut self) -> OpDesc {
        match self.rng.below(100) {
            0..=54 => self.fresh_insert(),
            55..=69 => OpDesc::PopBest,
            70..=79 => match self.issued_pick() {
                Some(id) => OpDesc::Remove { id },
                None => self.fresh_insert(),
            },
            80..=89 => match self.issued_pick() {
                Some(id) => OpDesc::Promote {
                    id,
                    prio: self.rng.below(PRIOS),
                },
                None => self.fresh_insert(),
            },
            90..=94 => OpDesc::RemoveSender {
                sender: self.zipf.sample(&mut self.rng),
            },
            _ => match self.issued_pick() {
                Some(id) => self.insert_of(id),
                None => self.fresh_insert(),
            },
        }
    }
}

/// Apply one descriptor inside a transaction; returns what the op did.
fn apply(p: &TxPool, tx: &mut stm::Tx<'_, '_>, op: &OpDesc) -> stm::TxResult<PoolCounters> {
    let mut t = PoolCounters::default();
    match *op {
        OpDesc::Insert {
            id,
            sender,
            nonce,
            prio,
            payload_words,
        } => match p.insert(tx, id, sender, nonce, prio, payload_words)? {
            InsertOutcome::Inserted { evicted } => {
                t.inserted = 1;
                t.evicted = evicted;
            }
            InsertOutcome::Duplicate => t.dup_hits = 1,
            InsertOutcome::Rejected => t.rejected = 1,
        },
        OpDesc::PopBest => {
            if p.pop_best(tx)?.is_some() {
                t.popped = 1;
            }
        }
        OpDesc::Remove { id } => {
            if p.remove(tx, id)?.is_some() {
                t.removed = 1;
            }
        }
        OpDesc::Promote { id, prio } => {
            if p.promote(tx, id, prio)? {
                t.promoted = 1;
            }
        }
        OpDesc::RemoveSender { sender } => {
            t.purged = p.remove_sender(tx, sender)?;
        }
    }
    Ok(t)
}

/// The arm axis of one run, in row order.
fn arms(popts: &PoolOpts) -> Vec<String> {
    let mut v = vec!["plain".to_string()];
    if popts.merge > 1 {
        v.push(format!("merge-{}", popts.merge));
    }
    if popts.durable {
        v.push("durable".to_string());
    }
    v
}

fn pool_cfg(popts: &PoolOpts, arm: &str) -> TxConfig {
    let mut cfg = TxConfig::runtime_tree_nursery();
    if arm.starts_with("merge-") {
        cfg = TxConfig::builder()
            .mode(stm::Mode::Runtime {
                log: stm::LogKind::Tree,
                scope: stm::CheckScope::FULL,
            })
            .nursery(true)
            .merge_max(popts.merge as u32)
            .build()
            .expect("merge factor validated at the CLI boundary");
    }
    if arm == "durable" {
        cfg = TxConfig::builder()
            .mode(stm::Mode::Runtime {
                log: stm::LogKind::Tree,
                scope: stm::CheckScope::FULL,
            })
            .nursery(true)
            .durable(true)
            .durable_flush_batch(8)
            .build()
            .expect("durable pool config is statically valid");
    }
    cfg
}

/// Heap sizing: the pool's global structures, the full live-item budget
/// with allocator headroom, and per-thread nursery slack.
fn mem_cfg(popts: &PoolOpts, threads: usize) -> MemConfig {
    let cap = PoolConfig {
        budget_bytes: popts.budget,
        bloom_words: bloom_words_for(popts.budget),
    }
    .capacity();
    let words = 4 * (popts.budget / 8)
        + 16 * cap
        + bloom_words_for(popts.budget)
        + (threads as u64 + 1) * (1 << 12)
        + (1 << 14);
    MemConfig {
        max_threads: threads + 1,
        stack_words: 1 << 10,
        heap_words: words as usize,
    }
}

/// Bloom width scaled to the budget: roughly 8 bits per budget-bounded
/// live item, clamped to a sane power-of-two range.
pub fn bloom_words_for(budget: u64) -> u64 {
    let max_items = (budget / pool::Item::BYTES).max(1);
    (max_items / 8).next_power_of_two().clamp(16, 1 << 16)
}

/// What one run of an arm leaves to report besides its wall time.
struct ArmOutcome {
    counters: PoolCounters,
    /// Live allocator payload bytes at quiesce (the sim-heap's RSS).
    heap_bytes: u64,
    /// Redo-log footprint (durable arm only).
    log_bytes: u64,
    stats: TxStats,
}

/// One timed run of one arm. Builds a fresh runtime + pool, drives the
/// full op count across the threads, then reconciles telemetry and runs
/// the structural checker.
fn run_once(opts: &ExptOpts, popts: &PoolOpts, arm: &str) -> (f64, ArmOutcome) {
    let threads = opts.threads.max(1);
    let ops = popts.ops;
    assert!(ops > 0 && popts.budget > 0, "resolve() the PoolOpts first");
    let per_thread = (ops as usize).div_ceil(threads);
    let cfg = pool_cfg(popts, arm);
    let mem = mem_cfg(popts, threads);
    let (rt, disk) = if arm == "durable" {
        let disk = SimDisk::new();
        (StmRuntime::new_durable(mem, cfg, disk.clone()), Some(disk))
    } else {
        (StmRuntime::new(mem, cfg), None)
    };
    let pool = TxPool::create(
        &rt,
        PoolConfig {
            budget_bytes: popts.budget,
            bloom_words: bloom_words_for(popts.budget),
        },
    );
    let zipf = Zipf::new(SENDERS, popts.theta);
    let factor = if arm.starts_with("merge-") {
        popts.merge
    } else {
        1
    };
    // Pre-draw every thread's ops (whole merge windows) before the clock
    // starts: the timed loop below only applies them.
    let streams: Vec<Vec<OpDesc>> = (0..threads)
        .map(|t| {
            OpGen::new(popts.seed, t, &zipf, popts.payload_max)
                .stream(per_thread.next_multiple_of(factor))
        })
        .collect();
    rt.reset_stats();
    let total = std::sync::Mutex::new(PoolCounters::default());
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for stream in &streams {
            let rt = &rt;
            let total = &total;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut sum = PoolCounters::default();
                if factor > 1 {
                    // Salvage retries replay a window's identical ops at
                    // the same logical indices.
                    for descs in stream.chunks(factor) {
                        let mut outs = vec![PoolCounters::default(); factor];
                        let run = w.txn_batch(factor, |b| {
                            let i = b.logical_index() as usize;
                            outs[i] = apply(&pool, b, &descs[i])?;
                            Ok(true)
                        });
                        assert_eq!(run.committed, factor as u64);
                        for o in &outs {
                            tally(&mut sum, o);
                        }
                    }
                } else {
                    for desc in stream {
                        let t = w.txn(|tx| apply(&pool, tx, desc));
                        tally(&mut sum, &t);
                    }
                }
                tally(&mut total.lock().unwrap(), &sum);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    // Quiesce-time verification: structure, accounting, and an exact
    // reconciliation of header telemetry against the thread tallies.
    let w = rt.spawn_worker();
    pool.seq_check(&w);
    let counters = pool.seq_counters(&w);
    let tallied = PoolCounters {
        count: counters.count,
        live_bytes: counters.live_bytes,
        evicted_bytes: counters.evicted_bytes,
        dup_skips: counters.dup_skips,
        ..total.into_inner().unwrap()
    };
    assert_eq!(
        tallied, counters,
        "pool {arm} arm: header telemetry vs the threads' tallies"
    );
    drop(w);
    let stats = rt.collect_stats();
    // The workload must actually exercise the machinery it claims to:
    // a run with zero evictions, zero duplicate traffic, no nursery
    // regions, or (merged) no merged windows measures nothing.
    assert!(
        counters.evicted > 0,
        "pool {arm}: no evictions at {ops} ops"
    );
    assert!(
        counters.dup_hits + counters.dup_skips > 0,
        "pool {arm}: duplicate filter never exercised"
    );
    assert!(
        stats.nursery_regions > 0,
        "pool {arm}: nursery never engaged despite nursery config"
    );
    if factor > 1 {
        assert!(
            stats.merged_txns > 0,
            "pool {arm}: merge windows never actually merged"
        );
    }
    let out = ArmOutcome {
        counters,
        heap_bytes: rt.heap().bytes_allocated(),
        log_bytes: disk.map_or(0, |d| d.log_bytes()),
        stats,
    };
    (seconds, out)
}

/// Run every arm, median-timing each over `opts.runs`: a `rows` table,
/// one row per arm (the pool's telemetry at quiesce and the STM stats of
/// the last run), then where the first arm's sim-heap bytes go.
pub fn report(opts: &ExptOpts, popts: &PoolOpts) -> Report {
    let popts = &resolve(opts, popts);
    let threads = opts.threads;
    let committed_ops = ((popts.ops as usize).div_ceil(threads) * threads) as u64;
    let bloom_words = bloom_words_for(popts.budget);
    let mut r = Report::new(
        "bench_pool/v2",
        format!(
            "Transactional memory pool — zipf(θ={:.2}) op mix \
             (scale {}, {} threads, median of {} runs)",
            popts.theta,
            scale_name(opts.scale),
            threads,
            opts.runs
        ),
        opts,
    );
    r.params = vec![
        ("seed", popts.seed.into()),
        ("budget_bytes", popts.budget.into()),
        ("bloom_words", bloom_words.into()),
        ("theta", Cell::Float(popts.theta, 3)),
        ("senders", SENDERS.into()),
    ];
    let mut t = Table::new("rows", "");
    let mut budget = None;
    for arm in arms(popts) {
        let (secs, last) = repeat(opts.runs, || run_once(opts, popts, &arm));
        let seconds = median(secs);
        let (c, s) = (&last.counters, &last.stats);
        budget.get_or_insert_with(|| budget_table(popts, &arm, c.live_bytes, last.heap_bytes));
        t.push(vec![
            ("arm", arm.into()),
            ("ops", committed_ops.into()),
            ("threads", threads.into()),
            ("seconds", Cell::Float(seconds, 6)),
            (
                "ops_per_sec",
                Cell::Float(committed_ops as f64 / seconds, 1),
            ),
            (
                "abort_rate",
                Cell::Float(share(s.aborts, s.commits + s.aborts), 4),
            ),
            ("live_count", c.count.into()),
            ("live_bytes", c.live_bytes.into()),
            ("heap_bytes", last.heap_bytes.into()),
            ("inserted", c.inserted.into()),
            ("evicted", c.evicted.into()),
            ("evicted_bytes", c.evicted_bytes.into()),
            ("dup_hits", c.dup_hits.into()),
            ("dup_skips", c.dup_skips.into()),
            ("rejected", c.rejected.into()),
            ("popped", c.popped.into()),
            ("removed", c.removed.into()),
            ("promoted", c.promoted.into()),
            ("purged", c.purged.into()),
            ("nursery_regions", s.nursery_regions.into()),
            ("merged_txns", s.merged_txns.into()),
            ("merge_splits", s.merge_splits.into()),
            ("log_bytes", last.log_bytes.into()),
            ("p50_ns", s.latency_pct_ns(0.5).into()),
            ("p99_ns", s.latency_pct_ns(0.99).into()),
        ]);
    }
    r.tables.push(t);
    r.tables.extend(budget);
    r
}

/// Where one arm's sim-heap bytes go at quiesce, per pool component.
fn budget_table(popts: &PoolOpts, arm: &str, live_bytes: u64, heap_bytes: u64) -> Table {
    let bloom_words = bloom_words_for(popts.budget);
    let cap = PoolConfig {
        budget_bytes: popts.budget,
        bloom_words,
    }
    .capacity();
    let mut t = Table::new("budget", format!("Byte budget ({arm} arm, at quiesce)"));
    let index = format!("`capacity * 8` = {cap} * 8");
    for (component, formula, bytes) in [
        ("header", "`PoolHdr::BYTES`", pool::PoolHdr::BYTES),
        ("id index", index.as_str(), cap * 8),
        ("sender index", index.as_str(), cap * 8),
        (
            "skiplist heads + tail",
            "`(MAX_LEVEL + 1) * 8`",
            (pool::MAX_LEVEL as u64 + 1) * 8,
        ),
        ("bloom filter", "`bloom_words * 8`", bloom_words * 8),
        ("live items", "`Σ (Item::BYTES + 8·payload)`", live_bytes),
        ("sim-heap live total", "allocator telemetry", heap_bytes),
    ] {
        t.push(vec![
            ("component", component.into()),
            ("formula", formula.into()),
            ("bytes", bytes.into()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate, verdict};

    fn tiny_opts() -> (ExptOpts, PoolOpts) {
        let opts = ExptOpts::test(2);
        let popts = PoolOpts {
            ops: 4_000,
            budget: 64 * pool::Item::BYTES,
            ..PoolOpts::default()
        };
        (opts, popts)
    }

    #[test]
    fn plain_arm_runs_checks_and_reconciles() {
        let (opts, popts) = tiny_opts();
        let r = report(&opts, &popts);
        let t = &r.tables[0];
        assert_eq!(t.rows.len(), 1);
        let at = |column| t.value(&[("arm", "plain")], column).unwrap();
        assert_eq!(at("ops"), 4_000.0);
        assert!(at("ops_per_sec") > 0.0);
        assert!(at("live_bytes") <= popts.budget as f64);
        let budget = &r.tables[1];
        assert_eq!(budget.title, "Byte budget (plain arm, at quiesce)");
        assert_eq!(
            budget.value(&[("component", "live items")], "bytes"),
            Some(at("live_bytes"))
        );
    }

    // The rows keep the keys, in order, of `bench_pool/v1`, and so do the
    // header's params.
    #[test]
    fn json_is_balanced_and_carries_the_schema() {
        let (opts, popts) = tiny_opts();
        let r = report(&opts, &popts);
        assert!(r
            .json()
            .starts_with("{\n  \"schema\": \"bench_pool/v2\",\n"));
        let params: Vec<&str> = r.params.iter().map(|p| p.0).collect();
        assert_eq!(
            params,
            ["seed", "budget_bytes", "bloom_words", "theta", "senders"]
        );
        assert_eq!(
            r.tables[0].columns.join(" "),
            "arm ops threads seconds ops_per_sec abort_rate live_count live_bytes heap_bytes \
             inserted evicted evicted_bytes dup_hits dup_skips rejected popped removed promoted \
             purged nursery_regions merged_txns merge_splits log_bytes p50_ns p99_ns"
        );
    }

    #[test]
    fn merge_and_durable_arms_ride_along() {
        let (opts, mut popts) = tiny_opts();
        popts.merge = 4;
        popts.durable = true;
        let t = &report(&opts, &popts).tables[0];
        let names: Vec<String> = t.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, ["plain", "merge-4", "durable"]);
        let at = |arm, column| t.value(&[("arm", arm)], column).unwrap();
        assert!(at("merge-4", "merged_txns") > 0.0);
        assert!(
            at("durable", "log_bytes") > 0.0,
            "durable arm must write a log"
        );
    }

    // `--min-pool-throughput` judges the plain arm's ops/s.
    #[test]
    fn gate_passes_and_fails() {
        let (opts, popts) = tiny_opts();
        let g = gate("--min-pool-throughput");
        let r = report(&opts, &popts);
        assert!(verdict(g, 1.0, &r, None).is_ok());
        assert!(verdict(g, f64::INFINITY, &r, None).is_err());
        let empty = Report::new("x/v1", "x", &opts);
        assert!(verdict(g, 1.0, &empty, None).is_err());
    }
}
