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
//!   seeds the [`pool_throughput_gate`].
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

use crate::report::{esc, scale_name};
use crate::skew::{Rng, Zipf};
use crate::{median, ExptOpts};

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

/// What one op did — per-thread tallies reconciled against the pool's
/// own header telemetry at the end of the run.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    inserted: u64,
    evicted: u64,
    dup_hits: u64,
    rejected: u64,
    popped: u64,
    removed: u64,
    promoted: u64,
    purged: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.inserted += o.inserted;
        self.evicted += o.evicted;
        self.dup_hits += o.dup_hits;
        self.rejected += o.rejected;
        self.popped += o.popped;
        self.removed += o.removed;
        self.promoted += o.promoted;
        self.purged += o.purged;
    }

    fn matches(&self, c: &PoolCounters) -> Result<(), String> {
        let pairs = [
            ("inserted", self.inserted, c.inserted),
            ("evicted", self.evicted, c.evicted),
            ("dup_hits", self.dup_hits, c.dup_hits),
            ("rejected", self.rejected, c.rejected),
            ("popped", self.popped, c.popped),
            ("removed", self.removed, c.removed),
            ("promoted", self.promoted, c.promoted),
            ("purged", self.purged, c.purged),
        ];
        for (name, mine, pool) in pairs {
            if mine != pool {
                return Err(format!(
                    "telemetry mismatch on {name}: threads tallied {mine}, pool header says {pool}"
                ));
            }
        }
        Ok(())
    }
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

/// Apply one descriptor inside a transaction; returns the op's tally.
fn apply(p: &TxPool, tx: &mut stm::Tx<'_, '_>, op: &OpDesc) -> stm::TxResult<Tally> {
    let mut t = Tally::default();
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

/// One arm's results.
#[derive(Clone, Debug)]
pub struct PoolRow {
    /// Arm name: `plain`, `merge-N`, or `durable`.
    pub arm: String,
    /// Total committed ops (logical transactions) in the run.
    pub ops: u64,
    pub threads: usize,
    /// Median wall seconds over the configured runs.
    pub seconds: f64,
    /// Committed ops per second.
    pub ops_per_sec: f64,
    /// `aborts / (commits + aborts)`.
    pub abort_rate: f64,
    /// Pool telemetry at quiesce (last run).
    pub counters: PoolCounters,
    /// Live allocator payload bytes at quiesce (the sim-heap's RSS).
    pub heap_bytes: u64,
    /// Redo-log footprint (durable arm only).
    pub log_bytes: u64,
    /// STM stats of the last run.
    pub stats: TxStats,
}

struct ArmOutcome {
    seconds: f64,
    counters: PoolCounters,
    heap_bytes: u64,
    log_bytes: u64,
    stats: TxStats,
}

/// One timed run of one arm. Builds a fresh runtime + pool, drives the
/// full op count across the threads, then reconciles telemetry and runs
/// the structural checker.
fn run_once(opts: &ExptOpts, popts: &PoolOpts, arm: &str) -> ArmOutcome {
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
    let total = std::sync::Mutex::new(Tally::default());
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for stream in &streams {
            let rt = &rt;
            let total = &total;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut tally = Tally::default();
                if factor > 1 {
                    // Salvage retries replay a window's identical ops at
                    // the same logical indices.
                    for descs in stream.chunks(factor) {
                        let mut outs: Vec<Tally> = vec![Tally::default(); factor];
                        let run = w.txn_batch(factor, |b| {
                            let i = b.logical_index() as usize;
                            outs[i] = apply(&pool, b, &descs[i])?;
                            Ok(true)
                        });
                        assert_eq!(run.committed, factor as u64);
                        for o in &outs {
                            tally.add(o);
                        }
                    }
                } else {
                    for desc in stream {
                        let t = w.txn(|tx| apply(&pool, tx, desc));
                        tally.add(&t);
                    }
                }
                total.lock().unwrap().add(&tally);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    // Quiesce-time verification: structure, accounting, and an exact
    // reconciliation of header telemetry against the thread tallies.
    let w = rt.spawn_worker();
    pool.seq_check(&w);
    let counters = pool.seq_counters(&w);
    let tally = total.into_inner().unwrap();
    if let Err(e) = tally.matches(&counters) {
        panic!("pool {arm} arm: {e}");
    }
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
    ArmOutcome {
        seconds,
        counters,
        heap_bytes: rt.heap().bytes_allocated(),
        log_bytes: disk.map_or(0, |d| d.log_bytes()),
        stats,
    }
}

/// Run every arm, median-timing each over `opts.runs`.
pub fn pool_rows(opts: &ExptOpts, popts: &PoolOpts) -> Vec<PoolRow> {
    let popts = &resolve(opts, popts);
    let threads = opts.threads.max(1);
    let committed_ops = ((popts.ops as usize).div_ceil(threads) * threads) as u64;
    let mut rows = Vec::new();
    for arm in arms(popts) {
        let outcomes: Vec<ArmOutcome> = (0..opts.runs.max(1))
            .map(|_| run_once(opts, popts, &arm))
            .collect();
        let seconds = median(outcomes.iter().map(|o| o.seconds).collect());
        let last = outcomes.into_iter().next_back().expect("runs >= 1");
        let attempts = last.stats.commits + last.stats.aborts;
        rows.push(PoolRow {
            arm,
            ops: committed_ops,
            threads,
            seconds,
            ops_per_sec: if seconds > 0.0 {
                committed_ops as f64 / seconds
            } else {
                0.0
            },
            abort_rate: if attempts > 0 {
                last.stats.aborts as f64 / attempts as f64
            } else {
                0.0
            },
            counters: last.counters,
            heap_bytes: last.heap_bytes,
            log_bytes: last.log_bytes,
            stats: last.stats,
        });
    }
    rows
}

/// Render the `BENCH_pool.json` report (hand-written JSON; no serde in
/// the offline container).
pub fn pool_json(opts: &ExptOpts, popts: &PoolOpts, rows: &[PoolRow]) -> String {
    let popts = &resolve(opts, popts);
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema\": \"bench_pool/v1\",\n  \"scale\": \"{}\",\n  \"runs\": {},\n",
        scale_name(opts.scale),
        opts.runs.max(1)
    ));
    out.push_str(&format!("  \"debug_build\": {},\n", cfg!(debug_assertions)));
    out.push_str(&format!("  \"threads\": {},\n", opts.threads.max(1)));
    out.push_str(&format!(
        "  \"seed\": {},\n  \"machine\": {},\n",
        popts.seed,
        crate::report::machine_json()
    ));
    out.push_str(&format!(
        "  \"budget_bytes\": {},\n  \"bloom_words\": {},\n  \"theta\": {:.3},\n  \"senders\": {},\n",
        popts.budget,
        bloom_words_for(popts.budget),
        popts.theta,
        SENDERS
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let c = &r.counters;
        out.push_str(&format!(
            "    {{\"arm\": \"{}\", \"ops\": {}, \"threads\": {}, \"seconds\": {:.6}, \
             \"ops_per_sec\": {:.1}, \"abort_rate\": {:.4}, \
             \"live_count\": {}, \"live_bytes\": {}, \"heap_bytes\": {}, \
             \"inserted\": {}, \"evicted\": {}, \"evicted_bytes\": {}, \
             \"dup_hits\": {}, \"dup_skips\": {}, \"rejected\": {}, \
             \"popped\": {}, \"removed\": {}, \"promoted\": {}, \"purged\": {}, \
             \"nursery_regions\": {}, \"merged_txns\": {}, \"merge_splits\": {}, \
             \"log_bytes\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            esc(&r.arm),
            r.ops,
            r.threads,
            r.seconds,
            r.ops_per_sec,
            r.abort_rate,
            c.count,
            c.live_bytes,
            r.heap_bytes,
            c.inserted,
            c.evicted,
            c.evicted_bytes,
            c.dup_hits,
            c.dup_skips,
            c.rejected,
            c.popped,
            c.removed,
            c.promoted,
            c.purged,
            r.stats.nursery_regions,
            r.stats.merged_txns,
            r.stats.merge_splits,
            r.log_bytes,
            r.stats.latency_pct_ns(0.5),
            r.stats.latency_pct_ns(0.99),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Markdown rendering: the arm table, then a per-component byte-budget
/// table for the plain arm (where does the sim-heap RSS go?).
pub fn render_markdown(opts: &ExptOpts, popts: &PoolOpts, rows: &[PoolRow]) -> String {
    let popts = &resolve(opts, popts);
    let mut out = String::new();
    out.push_str(&format!(
        "## Transactional memory pool — zipf(θ={:.2}) op mix \
         (scale {}, {} threads, median of {} runs)\n\n",
        popts.theta,
        scale_name(opts.scale),
        opts.threads.max(1),
        opts.runs.max(1)
    ));
    out.push_str(
        "| arm | ops | ops/s | abort % | live items | live bytes | evicted | dup hits | dup skips |\n\
         |---|---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for r in rows {
        let c = &r.counters;
        out.push_str(&format!(
            "| {} | {} | {:.0} | {:.2} | {} | {} | {} | {} | {} |\n",
            r.arm,
            r.ops,
            r.ops_per_sec,
            100.0 * r.abort_rate,
            c.count,
            c.live_bytes,
            c.evicted,
            c.dup_hits,
            c.dup_skips
        ));
    }
    out.push('\n');
    if let Some(r) = rows.first() {
        let cfg = PoolConfig {
            budget_bytes: popts.budget,
            bloom_words: bloom_words_for(popts.budget),
        };
        let cap = cfg.capacity();
        out.push_str(&format!(
            "Byte budget ({} arm, at quiesce):\n\n\
             | component | formula | bytes |\n|---|---|---:|\n\
             | header | `PoolHdr::BYTES` | {} |\n\
             | id index | `capacity * 8` = {cap} * 8 | {} |\n\
             | sender index | `capacity * 8` = {cap} * 8 | {} |\n\
             | skiplist heads + tail | `(MAX_LEVEL + 1) * 8` | {} |\n\
             | bloom filter | `bloom_words * 8` | {} |\n\
             | live items | `Σ (Item::BYTES + 8·payload)` | {} |\n\
             | sim-heap live total | allocator telemetry | {} |\n\n",
            r.arm,
            pool::PoolHdr::BYTES,
            cap * 8,
            cap * 8,
            (pool::MAX_LEVEL as u64 + 1) * 8,
            bloom_words_for(popts.budget) * 8,
            r.counters.live_bytes,
            r.heap_bytes,
        ));
    }
    out
}

/// Release gate: the plain arm must sustain `min` committed ops/s. The
/// `expt` front end self-skips in debug builds.
pub fn pool_throughput_gate(rows: &[PoolRow], min: f64) -> Result<f64, String> {
    let row = rows
        .iter()
        .find(|r| r.arm == "plain")
        .ok_or("no plain pool row")?;
    if row.ops_per_sec >= min {
        Ok(row.ops_per_sec)
    } else {
        Err(format!(
            "pool plain-arm throughput {:.0} ops/s below required {min:.0}",
            row.ops_per_sec
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> (ExptOpts, PoolOpts) {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 2,
            runs: 1,
        };
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
        let rows = pool_rows(&opts, &popts);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.arm, "plain");
        assert_eq!(r.ops, 4_000);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.counters.live_bytes <= popts.budget);
    }

    #[test]
    fn merge_and_durable_arms_ride_along() {
        let (opts, mut popts) = tiny_opts();
        popts.merge = 4;
        popts.durable = true;
        let rows = pool_rows(&opts, &popts);
        let names: Vec<&str> = rows.iter().map(|r| r.arm.as_str()).collect();
        assert_eq!(names, ["plain", "merge-4", "durable"]);
        let merged = &rows[1];
        assert!(merged.stats.merged_txns > 0, "{merged:?}");
        let durable = &rows[2];
        assert!(durable.log_bytes > 0, "durable arm must write a log");
    }

    #[test]
    fn json_is_balanced_and_carries_the_schema() {
        let (opts, popts) = tiny_opts();
        let rows = pool_rows(&opts, &popts);
        let json = pool_json(&opts, &popts, &rows);
        assert!(json.contains("\"schema\": \"bench_pool/v1\""));
        assert!(json.contains("\"arm\": \"plain\""));
        assert!(json.contains("\"seed\": 1") && json.contains("\"available_parallelism\":"));
        assert!(json.contains("\"evicted\":"));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert!(!render_markdown(&opts, &popts, &rows).is_empty());
    }

    #[test]
    fn gate_passes_and_fails() {
        let (opts, popts) = tiny_opts();
        let rows = pool_rows(&opts, &popts);
        assert!(pool_throughput_gate(&rows, 1.0).is_ok());
        assert!(pool_throughput_gate(&rows, f64::INFINITY).is_err());
        assert!(pool_throughput_gate(&[], 1.0).is_err());
    }
}
