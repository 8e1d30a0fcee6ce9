//! One repetition of one workload, as the child process runs it: build a
//! fresh runtime, pre-draw every op, run the timed phase, then check the
//! outputs — all layers measured from outside, by wall-clock around calls
//! into public functions and by the public counters.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pool::model::ModelPool;
use pool::{InsertOutcome, PoolConfig, PoolCounters, TxPool};
use stm::{Mode, SimDisk, Site, StmRuntime, Tx, TxConfig, TxObject, TxResult, TxStats, WorkerCtx};
use txmem::{CachePadded, MemConfig};

use crate::gen::{self, PoolOp, StreamHash, Transfer, POOL_KIND_NAMES};
use crate::spec::Workload;
use crate::stats::percentile_sorted;
use crate::trace::{Span, ThreadTrace, Trace, KIND_BODY0, KIND_REP, KIND_TXN, REP};

/// Sample one `w.txn(..)` latency per this many pool ops (>= 60k samples
/// per million-op repetition, so p99 has > 600 samples beyond it).
const LAT_EVERY: usize = 16;
/// `transfer-short` transactions are ~200 ns: two timer reads on 1 in 16
/// would be ~2% of the measured work, so sample more thinly there.
const LAT_EVERY_TRANSFER: usize = 64;
/// A traced repetition records spans for one op in N, N chosen so that it
/// holds about this many `stm.txn` spans whatever its length: 1 in 8 on
/// the million-op pool workloads, 1 in 128 on `pool-lookup`'s 8.4M.
const TRACED_TXNS: usize = 125_000;

fn trace_every(ops: usize) -> usize {
    (ops / TRACED_TXNS).next_power_of_two()
}

/// Input sizes. `Smoke` keeps every mechanism (eviction, duplicates,
/// nursery, recovery, two threads) on tiny counts for CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn by_name(name: &str) -> Option<Scale> {
        [Scale::Full, Scale::Smoke]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

pub struct Sizes {
    /// `pool-mixed` family: ops per thread and the pool's byte budget.
    pub pool_ops: usize,
    pub budget: u64,
    /// `pool-lookup`: untimed prefill ops, window length, window cycles.
    pub prefill: usize,
    pub window: usize,
    pub cycles: usize,
    /// `transfer-short`: transactions per thread and shared words.
    pub transfers: usize,
    pub transfer_words: u64,
    /// `vacation-high`: table scale and task count.
    pub vacation_scale: stamp::Scale,
    pub vacation_tasks: u64,
}

pub fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            pool_ops: 1_000_000,
            budget: 1 << 20,
            prefill: 200_000,
            window: 1 << 20,
            cycles: 8,
            transfers: 4_000_000,
            transfer_words: 1 << 16,
            vacation_scale: stamp::Scale::Full,
            vacation_tasks: 1 << 19,
        },
        Scale::Smoke => Sizes {
            pool_ops: 20_000,
            budget: 1 << 14,
            prefill: 5_000,
            window: 1 << 12,
            cycles: 2,
            transfers: 50_000,
            transfer_words: 1 << 10,
            vacation_scale: stamp::Scale::Test,
            vacation_tasks: 1 << 10,
        },
    }
}

/// What, besides the workload's own definition, a repetition runs as. The
/// companions exist for the cross-arm per-layer ratios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Normal,
    /// The same workload on one thread (`*.scale_eff_2t` denominators).
    OneThread,
    /// `Mode::Baseline` instead of the capture configuration
    /// (`stm.barrier.capture_speedup`).
    Baseline,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Normal => "normal",
            Variant::OneThread => "1t",
            Variant::Baseline => "baseline",
        }
    }

    pub fn by_name(name: &str) -> Option<Variant> {
        [Variant::Normal, Variant::OneThread, Variant::Baseline]
            .into_iter()
            .find(|v| v.name() == name)
    }
}

pub struct RepSpec {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub variant: Variant,
    /// Record spans (and skip latency sampling: the traced repetition
    /// yields per-layer numbers only).
    pub traced: bool,
    /// Also run the checks that cost as much as the timed phase: replay
    /// the op stream through `ModelPool` and demand equal per-op outcomes
    /// and final contents (1-thread pool workloads), and recover
    /// `pool-durable` from its disk. The cheap checks always run.
    pub deep_check: bool,
    /// Where a traced repetition writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Named numbers one repetition yields: the end-to-end metrics by their
/// final names, per-layer metrics by theirs, plus `ops` and `timed_s`.
pub type Values = BTreeMap<String, f64>;

pub struct RepOutput {
    pub values: Values,
    /// Identity of the generated input (see [`StreamHash`]).
    pub stream_hash: u64,
}

// --- progress, for the parent's watchdog -----------------------------------

pub const PHASE_SETUP: u64 = 0;
pub const PHASE_TIMED: u64 = 1;
pub const PHASE_CHECK: u64 = 2;

/// Repetition phase and per-thread op counters, printed periodically by
/// the child's heartbeat thread. One cache line per counter: the workers
/// store to them from inside the timed loop.
pub static PHASE: AtomicU64 = AtomicU64::new(PHASE_SETUP);
pub static PROGRESS: [CachePadded<AtomicU64>; 2] = [
    CachePadded::new(AtomicU64::new(0)),
    CachePadded::new(AtomicU64::new(0)),
];

fn enter(phase: u64) {
    PHASE.store(phase, Ordering::Relaxed);
}

// --- running threads ---------------------------------------------------------

/// Run `work(worker, thread)` on `threads` scoped threads released
/// together; returns the wall time from the release to the last join.
fn run_timed<T: Send>(
    rt: &StmRuntime,
    threads: usize,
    work: impl Fn(&mut WorkerCtx<'_>, usize) -> T + Sync,
) -> (Duration, Vec<T>) {
    let gate = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (gate, work) = (&gate, &work);
                s.spawn(move || {
                    let mut w = rt.spawn_worker();
                    gate.wait();
                    work(&mut w, t)
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark worker thread panicked"))
            .collect();
        (t0.elapsed(), outs)
    })
}

fn latency_values(values: &mut Values, mut lat_ns: Vec<u32>) {
    lat_ns.sort_unstable();
    if let (Some(p50), Some(p99)) = (
        percentile_sorted(&lat_ns, 0.50),
        percentile_sorted(&lat_ns, 0.99),
    ) {
        values.insert("op_p50_ns".into(), p50 as f64);
        values.insert("op_p99_ns".into(), p99 as f64);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics that are pure functions of the public
/// `TxStats` counters, per committed logical op.
fn counter_values(values: &mut Values, s: &TxStats, ops: u64) {
    let all = s.all_accesses();
    let conflicts = s.conflict_read_locked + s.conflict_write_locked + s.conflict_validation;
    let kop = |n: u64| 1000.0 * ratio(n, ops);
    let pairs = [
        ("stm.barrier.reads_per_op", ratio(s.reads.total, ops)),
        ("stm.barrier.writes_per_op", ratio(s.writes.total, ops)),
        ("stm.barrier.full_per_op", ratio(all.full, ops)),
        // Not published: the model prices full reads and writes apart.
        ("x.reads_full_per_op", ratio(s.reads.full, ops)),
        ("x.writes_full_per_op", ratio(s.writes.full, ops)),
        (
            "stm.barrier.elided_heap_per_op",
            ratio(all.elided_heap, ops),
        ),
        (
            "stm.barrier.elided_stack_per_op",
            ratio(all.elided_stack, ops),
        ),
        (
            "stm.barrier.nursery_hits_per_op",
            ratio(s.nursery_hits, ops),
        ),
        (
            "stm.barrier.ranged_spans_per_op",
            ratio(s.ranged_spans, ops),
        ),
        ("stm.barrier.elided_fraction", all.elided_fraction()),
        ("stm.commit.ro_share", ratio(s.commits_ro, s.commits)),
        (
            "stm.clock.adopts_per_commit",
            ratio(s.clock_adopts, s.commits),
        ),
        (
            "stm.contention.abort_share",
            ratio(s.aborts, s.commits + s.aborts),
        ),
        ("stm.contention.backoff_waits_per_kop", kop(s.backoff_waits)),
        ("stm.contention.karma_per_kop", kop(s.cm_karma_escalations)),
        (
            "stm.contention.serializations_per_kop",
            kop(s.cm_serializations),
        ),
        ("stm.contention.attempts_max", s.attempts_max as f64),
        (
            "stm.contention.conflict_read_locked_share",
            ratio(s.conflict_read_locked, conflicts),
        ),
        (
            "stm.contention.conflict_write_locked_share",
            ratio(s.conflict_write_locked, conflicts),
        ),
        (
            "stm.contention.conflict_validation_share",
            ratio(s.conflict_validation, conflicts),
        ),
        ("stm.txalloc.allocs_per_op", ratio(s.tx_allocs, ops)),
        ("stm.txalloc.frees_per_op", ratio(s.tx_frees, ops)),
        ("stm.nursery.regions_per_kop", kop(s.nursery_regions)),
        (
            "stm.nursery.bytes_recycled_per_op",
            ratio(s.nursery_bytes_recycled, ops),
        ),
        ("stm.durable.words_per_op", ratio(s.durable_words, ops)),
        ("stm.durable.skipped_per_op", ratio(s.durable_skipped, ops)),
        ("stm.durable.flushes_per_op", ratio(s.durable_flushes, ops)),
        (
            "stm.durable.skip_ratio",
            ratio(s.durable_skipped, s.durable_words + s.durable_skipped),
        ),
    ];
    values.extend(pairs.map(|(k, v)| (k.to_string(), v)));
}

/// Per-layer metrics a trace yields, and the span file.
fn trace_values(
    values: &mut Values,
    trace: &Trace,
    ops: u64,
    spec: &RepSpec,
) -> Result<(), String> {
    values.insert("stm.worker.txn_self_ns".into(), trace.txn_self_ns());
    values.insert("trace.spans".into(), trace.spans.len() as f64);
    if spec.workload.is_pool() {
        values.insert(
            "pool.ops.attempts_per_op".into(),
            ratio(trace.attempts, ops),
        );
        for (name, p50, p99, share) in trace.body_kinds() {
            // `pool.stats` has spans but no metric of its own: 5% of one
            // workload's ops, two header reads each.
            if name != "pool.stats" {
                let base = name.replacen("pool.", "pool.ops.", 1);
                values.insert(format!("{base}_ns_p50"), p50);
                values.insert(format!("{base}_ns_p99"), p99);
                values.insert(format!("{base}_time_share"), share);
            }
        }
    }
    write_trace(trace, spec)
}

/// Spans stay in memory until here: the repetition is over.
fn write_trace(trace: &Trace, spec: &RepSpec) -> Result<(), String> {
    let Some(path) = &spec.trace_out else {
        return Ok(());
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let json = trace.to_json(spec.workload.name(), spec.seed).render();
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn run(spec: &RepSpec) -> Result<RepOutput, String> {
    let threads = match spec.variant {
        Variant::OneThread => 1,
        _ => spec.workload.spec().threads,
    };
    match spec.workload {
        Workload::VacationHigh => vacation_rep(spec, threads),
        Workload::TransferShort => transfer_rep(spec, threads),
        _ => pool_rep(spec, threads),
    }
}

// --- pool workloads ----------------------------------------------------------

/// What the threads' outcomes add up to, reconciled against the pool's
/// own header telemetry at quiesce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// Account one op's outcome code (see [`apply`]).
    fn record(&mut self, op: &PoolOp, outcome: u64) {
        match op {
            PoolOp::Insert { .. } => match outcome {
                0 => self.dup_hits += 1,
                1 => self.rejected += 1,
                n => {
                    self.inserted += 1;
                    self.evicted += n - 2;
                }
            },
            PoolOp::PopBest => self.popped += (outcome != 0) as u64,
            PoolOp::Remove { .. } => self.removed += (outcome != 0) as u64,
            PoolOp::Promote { .. } => self.promoted += outcome,
            PoolOp::RemoveSender { .. } => self.purged += outcome,
            PoolOp::Contains { .. } | PoolOp::Stats => {}
        }
    }

    fn of(c: &PoolCounters) -> Tally {
        Tally {
            inserted: c.inserted,
            evicted: c.evicted,
            dup_hits: c.dup_hits,
            rejected: c.rejected,
            popped: c.popped,
            removed: c.removed,
            promoted: c.promoted,
            purged: c.purged,
        }
    }
}

fn insert_code(o: InsertOutcome) -> u64 {
    match o {
        InsertOutcome::Duplicate => 0,
        InsertOutcome::Rejected => 1,
        InsertOutcome::Inserted { evicted } => 2 + evicted,
    }
}

/// Apply one op inside a transaction. The returned code is the op's
/// observable outcome: insert → 0 duplicate / 1 rejected / 2 + evicted;
/// pop_best and remove → the id taken (0 = none); promote and contains →
/// 0/1; remove_sender → items purged; stats → `len << 32 | live_bytes`.
#[inline]
fn apply(p: &TxPool, tx: &mut Tx<'_, '_>, op: &PoolOp) -> TxResult<u64> {
    Ok(match *op {
        PoolOp::Insert {
            id,
            nonce,
            prio,
            sender,
            payload_words,
        } => insert_code(p.insert(
            tx,
            id,
            sender as u64,
            nonce as u64,
            prio as u64,
            payload_words as u64,
        )?),
        PoolOp::PopBest => p.pop_best(tx)?.map_or(0, |e| e.id),
        PoolOp::Remove { id } => p.remove(tx, id)?.map_or(0, |e| e.id),
        PoolOp::Promote { id, prio } => p.promote(tx, id, prio as u64)? as u64,
        PoolOp::RemoveSender { sender } => p.remove_sender(tx, sender as u64)?,
        PoolOp::Contains { id } => p.contains(tx, id)? as u64,
        PoolOp::Stats => p.len(tx)? << 32 | p.live_bytes(tx)?,
    })
}

/// [`apply`] on the sequential reference model.
fn apply_model(m: &mut ModelPool, op: &PoolOp) -> u64 {
    match *op {
        PoolOp::Insert {
            id,
            nonce,
            prio,
            sender,
            payload_words,
        } => insert_code(m.insert(
            id,
            sender as u64,
            nonce as u64,
            prio as u64,
            payload_words as u64,
        )),
        PoolOp::PopBest => m.pop_best().map_or(0, |e| e.id),
        PoolOp::Remove { id } => m.remove(id).map_or(0, |e| e.id),
        PoolOp::Promote { id, prio } => m.promote(id, prio as u64) as u64,
        PoolOp::RemoveSender { sender } => m.remove_sender(sender as u64),
        PoolOp::Contains { id } => m.contains(id) as u64,
        PoolOp::Stats => {
            let c = m.counters();
            c.count << 32 | c.live_bytes
        }
    }
}

/// Bloom width for a budget: about 8 bits per budget-bounded live item
/// (the sizing `expt pool` uses).
fn bloom_words_for(budget: u64) -> u64 {
    let max_items = (budget / pool::Item::BYTES).max(1);
    (max_items / 8).next_power_of_two().clamp(16, 1 << 16)
}

/// Heap sizing as in `expt pool`: the pool's global structures, the live
/// budget with allocator headroom, and per-thread nursery slack.
fn pool_mem_cfg(pcfg: &PoolConfig, threads: usize) -> MemConfig {
    let words = 4 * (pcfg.budget_bytes / 8)
        + 16 * pcfg.capacity()
        + pcfg.bloom_words
        + (threads as u64 + 1) * (1 << 12)
        + (1 << 14);
    MemConfig {
        max_threads: threads + 1,
        stack_words: 1 << 10,
        heap_words: words as usize,
    }
}

struct PoolThreadOut {
    outcomes: Vec<u64>,
    lat_ns: Vec<u32>,
    trace: Option<ThreadTrace>,
}

/// The timed loop of one pool thread: `cycles` passes over `ops`, one
/// transaction per op.
fn drive_pool(
    w: &mut WorkerCtx<'_>,
    pool: &TxPool,
    ops: &[PoolOp],
    cycles: usize,
    progress: &AtomicU64,
    mut trace: Option<ThreadTrace>,
) -> PoolThreadOut {
    let total = ops.len() * cycles;
    let mut outcomes = Vec::with_capacity(total);
    let mut lat_ns = Vec::with_capacity(total / LAT_EVERY + 1);
    let every = trace_every(total);
    let mut i = 0usize;
    for _ in 0..cycles {
        for op in ops {
            if i.is_multiple_of(LAT_EVERY) {
                progress.store(i as u64, Ordering::Relaxed);
            }
            let outcome = match &mut trace {
                Some(tr) if i.is_multiple_of(every) => {
                    let id = i as u32;
                    let kind = KIND_BODY0 + op.kind() as u16;
                    let txn = tr.open_txn(id);
                    let out = w.txn(|tx| {
                        tr.attempts += 1;
                        let at = tr.now();
                        let r = apply(pool, tx, op);
                        tr.attempt(kind, id, txn, at);
                        r
                    });
                    tr.close(txn);
                    out
                }
                Some(tr) => w.txn(|tx| {
                    tr.attempts += 1;
                    apply(pool, tx, op)
                }),
                None if i.is_multiple_of(LAT_EVERY) => {
                    let t0 = Instant::now();
                    let out = w.txn(|tx| apply(pool, tx, op));
                    lat_ns.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                    out
                }
                None => w.txn(|tx| apply(pool, tx, op)),
            };
            outcomes.push(outcome);
            i += 1;
        }
    }
    progress.store(total as u64, Ordering::Relaxed);
    PoolThreadOut {
        outcomes,
        lat_ns,
        trace,
    }
}

fn pool_rep(spec: &RepSpec, threads: usize) -> Result<RepOutput, String> {
    let sz = sizes(spec.scale);
    let durable = spec.workload == Workload::PoolDurable;
    let setup_t0 = Instant::now();

    let pcfg = PoolConfig {
        budget_bytes: sz.budget,
        bloom_words: bloom_words_for(sz.budget),
    };
    let mem = pool_mem_cfg(&pcfg, threads);
    // Strict flush: `durable_flush_batch` stays at its default of 1 (group
    // commit is under audit, ROADMAP item 3).
    let mut cfg = TxConfig::runtime_tree_nursery();
    cfg.durable = durable;
    let disk = durable.then(SimDisk::new);
    let rt = match &disk {
        Some(d) => StmRuntime::new_durable(mem, cfg, d.clone()),
        None => StmRuntime::new(mem, cfg),
    };
    let pool = TxPool::create(&rt, pcfg);

    let mut hash = StreamHash::default();
    let mut tally = Tally::default();
    let mut prefill: Vec<PoolOp> = Vec::new();
    let (streams, cycles): (Vec<Vec<PoolOp>>, usize) = if spec.workload == Workload::PoolLookup {
        prefill = gen::pool_mixed(spec.seed, 0, sz.prefill);
        let mut w = rt.spawn_worker();
        for op in &prefill {
            let outcome = w.txn(|tx| apply(&pool, tx, op));
            tally.record(op, outcome);
        }
        let live = pool.seq_collect(&w);
        hash.pool_ops(&prefill);
        (
            vec![gen::pool_lookup(spec.seed, &live, sz.window)],
            sz.cycles,
        )
    } else {
        let streams = (0..threads as u64)
            .map(|t| gen::pool_mixed(spec.seed, t, sz.pool_ops))
            .collect();
        (streams, 1)
    };
    for s in &streams {
        hash.pool_ops(s);
    }
    let ops_total: u64 = streams.iter().map(|s| (s.len() * cycles) as u64).sum();
    let epoch = Instant::now();
    rt.reset_stats();
    let setup_s = setup_t0.elapsed().as_secs_f64();

    // ---- timed phase ----
    enter(PHASE_TIMED);
    let (timed, outs) = run_timed(&rt, threads, |w, t| {
        let trace = spec
            .traced
            .then(|| ThreadTrace::new(epoch, 3 * TRACED_TXNS));
        drive_pool(w, &pool, &streams[t], cycles, &PROGRESS[t], trace)
    });
    let rep_end_ns = epoch.elapsed().as_nanos() as u64;
    enter(PHASE_CHECK);
    let timed_s = timed.as_secs_f64();
    let stats = rt.collect_stats();

    // ---- checks, outside the timed phase ----
    let w = rt.spawn_worker();
    pool.seq_check(&w);
    let counters = pool.seq_counters(&w);
    for (stream, out) in streams.iter().zip(&outs) {
        for (op, &outcome) in stream.iter().cycle().zip(&out.outcomes) {
            tally.record(op, outcome);
        }
    }
    if tally != Tally::of(&counters) {
        return Err(format!(
            "outcome tally {tally:?} disagrees with the pool header {counters:?}"
        ));
    }
    if stats.commits != ops_total {
        return Err(format!("{} commits for {ops_total} ops", stats.commits));
    }
    if spec.workload != Workload::PoolLookup {
        // A run that never evicts, never meets a duplicate or never
        // engages the nursery measures something other than it claims.
        if counters.evicted == 0 || counters.dup_hits + counters.dup_skips == 0 {
            return Err(format!(
                "workload exercised no eviction/duplicates: {counters:?}"
            ));
        }
        if stats.nursery_regions == 0 {
            return Err("nursery never engaged".into());
        }
    }
    let contents = pool.seq_collect(&w);
    if spec.deep_check && threads == 1 {
        let mut model = ModelPool::new(pcfg.budget_bytes, pcfg.bloom_words);
        for op in &prefill {
            apply_model(&mut model, op);
        }
        let replay = streams[0].iter().cycle().zip(&outs[0].outcomes).enumerate();
        for (i, (op, &got)) in replay {
            let want = apply_model(&mut model, op);
            if want != got {
                return Err(format!(
                    "op {i} {op:?}: pool outcome {got}, model outcome {want}"
                ));
            }
        }
        if model.contents() != contents {
            return Err("final pool contents differ from the model's".into());
        }
        if model.counters() != counters {
            return Err(format!(
                "pool counters {counters:?} differ from the model's {:?}",
                model.counters()
            ));
        }
    }

    let mut values = Values::new();
    values.insert("ops".into(), ops_total as f64);
    values.insert("timed_s".into(), timed_s);
    values.insert("setup_s".into(), setup_s);
    values.insert("ops_per_s".into(), ops_total as f64 / timed_s);
    counter_values(&mut values, &stats, ops_total);
    let heap_bytes = rt.heap().bytes_allocated();
    values.insert("txmem.alloc.heap_bytes".into(), heap_bytes as f64);
    let space_amp = ratio(heap_bytes, counters.live_bytes);
    values.insert("txmem.alloc.space_amp".into(), space_amp);
    if spec.workload != Workload::PoolLookup {
        values.insert("space_amp".into(), space_amp);
    }
    let insert_ops = counters.inserted + counters.dup_hits + counters.rejected;
    values.insert(
        "pool.ops.evicted_per_insert".into(),
        ratio(counters.evicted, counters.inserted),
    );
    values.insert(
        "pool.ops.rejected_share".into(),
        ratio(counters.rejected, insert_ops),
    );
    values.insert(
        "pool.ops.dup_skip_ratio".into(),
        ratio(counters.dup_skips, counters.inserted),
    );

    if let Some(disk) = &disk {
        let log_bytes = disk.log_bytes();
        let per_op = log_bytes as f64 / ops_total as f64;
        values.insert("log_bytes_per_op".into(), per_op);
        values.insert("stm.durable.bytes_per_op".into(), per_op);
        values.insert(
            "stm.durable.appends_per_op".into(),
            ratio(disk.append_count(), ops_total),
        );
    }
    if let (Some(disk), true) = (disk, spec.deep_check) {
        // Crash here: everything the old runtime holds in memory is
        // forgotten, and the pool must come back from the disk bytes.
        drop(w);
        let t0 = Instant::now();
        let (recovered, report) = stm::recover(mem, cfg, disk);
        values.insert("stm.durable.recover_s".into(), t0.elapsed().as_secs_f64());
        let w2 = recovered.spawn_worker();
        pool.seq_check(&w2);
        if pool.seq_collect(&w2) != contents {
            return Err(format!(
                "recovered pool differs from the pre-crash contents ({report:?})"
            ));
        }
        if report.torn_tails != 0 {
            return Err(format!("clean shutdown left torn tails: {report:?}"));
        }
    }

    let mut lat_ns = Vec::new();
    let mut thread_traces = Vec::new();
    for out in outs {
        lat_ns.extend(out.lat_ns);
        thread_traces.extend(out.trace);
    }
    latency_values(&mut values, lat_ns);
    if spec.traced {
        let kinds = ["rep", "stm.txn"]
            .into_iter()
            .map(String::from)
            .chain(POOL_KIND_NAMES.iter().map(|k| format!("pool.{k}")))
            .collect();
        let trace = Trace::merge(kinds, rep_end_ns, thread_traces);
        trace_values(&mut values, &trace, ops_total, spec)?;
    }
    Ok(RepOutput {
        values,
        stream_hash: hash.value(),
    })
}

// --- transfer-short ------------------------------------------------------------

static S_XFER_R: Site = Site::shared("bench.transfer.read");
static S_XFER_W: Site = Site::shared("bench.transfer.write");

const INITIAL_BALANCE: u64 = 1_000;

fn transfer_rep(spec: &RepSpec, threads: usize) -> Result<RepOutput, String> {
    let sz = sizes(spec.scale);
    let setup_t0 = Instant::now();
    let rt = StmRuntime::new(
        MemConfig {
            max_threads: threads + 1,
            stack_words: 1 << 10,
            heap_words: sz.transfer_words as usize + (1 << 14),
        },
        TxConfig::runtime_tree_nursery(),
    );
    let base = rt.alloc_global(sz.transfer_words * 8);
    for i in 0..sz.transfer_words {
        rt.mem().store(base.word(i), INITIAL_BALANCE);
    }
    let streams: Vec<Vec<Transfer>> = (0..threads as u64)
        .map(|t| gen::transfers(spec.seed, t, sz.transfer_words, sz.transfers))
        .collect();
    let mut hash = StreamHash::default();
    for s in &streams {
        hash.transfers(s);
    }
    let epoch = Instant::now();
    rt.reset_stats();
    let setup_s = setup_t0.elapsed().as_secs_f64();

    enter(PHASE_TIMED);
    let (timed, outs) = run_timed(&rt, threads, |w, t| {
        let stream = &streams[t];
        let mut lat_ns = Vec::with_capacity(stream.len() / LAT_EVERY_TRANSFER + 1);
        let mut trace = spec
            .traced
            .then(|| ThreadTrace::new(epoch, 3 * stream.len() / LAT_EVERY_TRANSFER + 16));
        for (i, x) in stream.iter().enumerate() {
            let (from, to) = (base.word(x.from as u64), base.word(x.to as u64));
            let body = |tx: &mut Tx<'_, '_>| {
                let a = tx.read(&S_XFER_R, from)?;
                let b = tx.read(&S_XFER_R, to)?;
                tx.write(&S_XFER_W, from, a.wrapping_sub(1))?;
                tx.write(&S_XFER_W, to, b.wrapping_add(1))
            };
            if !i.is_multiple_of(LAT_EVERY_TRANSFER) {
                w.txn(body);
                continue;
            }
            PROGRESS[t].store(i as u64, Ordering::Relaxed);
            match &mut trace {
                Some(tr) => {
                    let txn = tr.open_txn(i as u32);
                    w.txn(|tx| {
                        let at = tr.now();
                        let r = body(tx);
                        tr.attempt(KIND_BODY0, i as u32, txn, at);
                        r
                    });
                    tr.close(txn);
                }
                None => {
                    let t0 = Instant::now();
                    w.txn(body);
                    lat_ns.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                }
            }
        }
        PROGRESS[t].store(stream.len() as u64, Ordering::Relaxed);
        (lat_ns, trace)
    });
    let rep_end_ns = epoch.elapsed().as_nanos() as u64;
    enter(PHASE_CHECK);
    let timed_s = timed.as_secs_f64();
    let stats = rt.collect_stats();

    // Unit transfers commute, so every word's final balance is known
    // whatever the interleaving — stronger than a conserved sum.
    let mut expect = vec![INITIAL_BALANCE; sz.transfer_words as usize];
    for x in streams.iter().flatten() {
        expect[x.from as usize] = expect[x.from as usize].wrapping_sub(1);
        expect[x.to as usize] = expect[x.to as usize].wrapping_add(1);
    }
    for (i, want) in expect.iter().enumerate() {
        let got = rt.mem().load(base.word(i as u64));
        if got != *want {
            return Err(format!("word {i}: balance {got}, expected {want}"));
        }
    }
    let ops_total = (threads * sz.transfers) as u64;
    if stats.commits != ops_total {
        return Err(format!(
            "{} commits for {ops_total} transfers",
            stats.commits
        ));
    }

    let mut values = Values::new();
    values.insert("ops".into(), ops_total as f64);
    values.insert("timed_s".into(), timed_s);
    values.insert("setup_s".into(), setup_s);
    values.insert("ops_per_s".into(), ops_total as f64 / timed_s);
    counter_values(&mut values, &stats, ops_total);
    values.insert(
        "txmem.alloc.heap_bytes".into(),
        rt.heap().bytes_allocated() as f64,
    );
    let mut lat_ns = Vec::new();
    let mut thread_traces = Vec::new();
    for (lat, trace) in outs {
        lat_ns.extend(lat);
        thread_traces.extend(trace);
    }
    latency_values(&mut values, lat_ns);
    if spec.traced {
        let kinds = ["rep", "stm.txn", "transfer.body"]
            .map(String::from)
            .to_vec();
        let trace = Trace::merge(kinds, rep_end_ns, thread_traces);
        trace_values(&mut values, &trace, ops_total, spec)?;
    }
    Ok(RepOutput {
        values,
        stream_hash: hash.value(),
    })
}

// --- vacation-high ---------------------------------------------------------------

fn vacation_rep(spec: &RepSpec, threads: usize) -> Result<RepOutput, String> {
    use stamp::apps::vacation;
    let sz = sizes(spec.scale);
    let mut cfg = vacation::Config::scaled(sz.vacation_scale, true);
    cfg.tasks = sz.vacation_tasks;
    cfg.seed = gen::mix(spec.seed);
    let txcfg = match spec.variant {
        Variant::Baseline => TxConfig::with_mode(Mode::Baseline),
        _ => TxConfig::runtime_tree_nursery(),
    };
    let mut hash = StreamHash::default();
    for w in [
        cfg.relations,
        cfg.tasks,
        cfg.queries_per_task,
        cfg.query_range_pct,
        cfg.user_pct,
        cfg.seed,
    ] {
        hash.word(w);
    }
    // The app owns its loop: table build, timed parallel phase and its own
    // verification all happen inside `run`, and only the parallel phase
    // is timed by it. Set-up is therefore everything else `run` did.
    enter(PHASE_TIMED);
    let t0 = Instant::now();
    let out = vacation::run(&cfg, txcfg, threads);
    let wall = t0.elapsed();
    enter(PHASE_CHECK);
    if !out.verified {
        return Err("vacation's resource-conservation check failed".into());
    }
    if out.stats.commits < cfg.tasks {
        return Err(format!(
            "{} commits for {} tasks",
            out.stats.commits, cfg.tasks
        ));
    }
    let timed_s = out.elapsed.as_secs_f64();
    let mut values = Values::new();
    values.insert("ops".into(), cfg.tasks as f64);
    values.insert("timed_s".into(), timed_s);
    values.insert("setup_s".into(), wall.as_secs_f64() - timed_s);
    values.insert("ops_per_s".into(), cfg.tasks as f64 / timed_s);
    counter_values(&mut values, &out.stats, cfg.tasks);
    values.insert(
        "stamp.vacation.barriers_per_task".into(),
        ratio(out.stats.all_accesses().total, cfg.tasks),
    );
    if spec.traced {
        // Nothing inside the app is visible from here: the trace is the
        // repetition span and one span around the call into the app.
        let wall_ns = wall.as_nanos() as u64;
        let span = |kind, parent| Span {
            kind,
            id: 0,
            parent,
            start_ns: 0,
            end_ns: wall_ns,
        };
        let trace = Trace {
            kinds: ["rep", "stamp.vacation.run"].map(String::from).to_vec(),
            spans: vec![span(KIND_REP, u32::MAX), span(KIND_TXN, REP)],
            attempts: 0,
        };
        values.insert("trace.spans".into(), trace.spans.len() as f64);
        write_trace(&trace, spec)?;
    }
    Ok(RepOutput {
        values,
        stream_hash: hash.value(),
    })
}
