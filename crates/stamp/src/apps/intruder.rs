//! `intruder` — network intrusion detection (STAMP `intruder`).
//!
//! Packet fragments arrive on a shared transactional queue; workers pop a
//! fragment and push it through flow reassembly: the per-flow record is
//! allocated (captured!) by whichever transaction sees the flow first and
//! updated as fragments accumulate; a completed flow is removed from the
//! reassembly table, scanned by the detector, and — if its payload matches
//! the attack signature — reported on a result queue.

use stm::{Site, StmRuntime, TxConfig};
use txmem::{Addr, MemConfig};

use crate::collections::{TxHashtable, TxQueue};
use crate::rng::SplitMix64;

use super::{run_parallel, RunOutcome, Scale};

// Flow record: [received, expected, payload_sum]
const F_RECV: u64 = 0;
const F_EXPECT: u64 = 1;
const F_SUM: u64 = 2;
const F_WORDS: u64 = 3;

static S_FLOW_R: Site = Site::shared("intruder.flow.read");
static S_FLOW_W: Site = Site::shared("intruder.flow.write");
// The expected-count pre-set happens inside `alloc_flow_record`, next to
// its own allocation: intraprocedurally visible in the helper's
// transactional clone.
static S_FLOW_EXPECT_INIT: Site = Site::captured_local("intruder.flow_expect_init.write");
// The caller's init writes go through `alloc_flow_record`'s *return
// value*. The real STAMP constructor (TMFLOW_ALLOC + its fragment-array
// setup) exceeds the bounded-inlining budget, so its TL equivalent is
// never inlined — only the interprocedural returns-captured summary
// proves these targets transaction-local (tests/cross_check.rs renders
// the pattern in TL and checks exactly this).
static S_FLOW_INIT: Site = Site::captured_interproc("intruder.flow_init.write");

#[derive(Clone, Debug)]
pub struct Config {
    pub flows: u64,
    pub frags_per_flow: u64,
    pub buckets: u64,
    pub seed: u64,
}

impl Config {
    pub fn scaled(scale: Scale) -> Config {
        let flows = match scale {
            Scale::Test => 128,
            Scale::Small => 1 << 11,
            Scale::Full => 1 << 14,
        };
        Config {
            flows,
            frags_per_flow: 4,
            buckets: (flows / 4).max(16),
            seed: 0x1277,
        }
    }
}

/// Pack a fragment descriptor into one queue word.
fn pack(flow: u64, payload: u64) -> u64 {
    (flow << 20) | payload
}

fn unpack(v: u64) -> (u64, u64) {
    (v >> 20, v & ((1 << 20) - 1))
}

/// The attack signature: payload sum divisible by 7 (stands in for STAMP's
/// dictionary match against a captured, reassembled byte stream).
fn is_attack(payload_sum: u64) -> bool {
    payload_sum.is_multiple_of(7)
}

/// STAMP `TMFLOW_ALLOC` analogue: allocate a flow record and pre-set the
/// expected fragment count. The record is captured by the calling
/// transaction; the caller finishes initialization through the returned
/// pointer (see [`S_FLOW_INIT`] for why that distinction matters to the
/// static analyses).
fn alloc_flow_record(tx: &mut stm::Tx<'_, '_>, expect: u64) -> stm::TxResult<Addr> {
    let rec = tx.alloc(F_WORDS * 8)?;
    tx.write(&S_FLOW_EXPECT_INIT, rec.word(F_EXPECT), expect)?;
    Ok(rec)
}

/// Process one packet fragment: pop, reassemble, detect, report. Returns
/// `Ok(true)` when the packet queue is drained. The body of one worker
/// transaction.
fn process_fragment(
    tx: &mut stm::Tx<'_, '_>,
    cfg: &Config,
    packets: &TxQueue,
    reassembly: &TxHashtable,
    results: &TxQueue,
) -> stm::TxResult<bool> {
    let Some(frag) = packets.pop(tx)? else {
        return Ok(true); // queue drained
    };
    let (flow, payload) = unpack(frag);
    let rec = match reassembly.find(tx, flow)? {
        Some(r) => {
            // Known flow: accumulate (shared writes).
            let r = Addr::from_raw(r);
            let recv = tx.read(&S_FLOW_R, r.word(F_RECV))?;
            let sum = tx.read(&S_FLOW_R, r.word(F_SUM))?;
            tx.write(&S_FLOW_W, r.word(F_RECV), recv + 1)?;
            tx.write(&S_FLOW_W, r.word(F_SUM), sum + payload)?;
            r
        }
        None => {
            // First fragment: the record is captured by this
            // transaction, so its initialization is elidable — but the
            // allocation sits in a helper, so only the interprocedural
            // analysis sees it.
            let r = alloc_flow_record(tx, cfg.frags_per_flow)?;
            tx.write(&S_FLOW_INIT, r.word(F_RECV), 1)?;
            tx.write(&S_FLOW_INIT, r.word(F_SUM), payload)?;
            reassembly.insert(tx, flow, r.raw())?;
            r
        }
    };
    let recv = tx.read(&S_FLOW_R, rec.word(F_RECV))?;
    let expect = tx.read(&S_FLOW_R, rec.word(F_EXPECT))?;
    if recv == expect {
        // Flow complete: detach, detect, report.
        let sum = tx.read(&S_FLOW_R, rec.word(F_SUM))?;
        reassembly.remove(tx, flow)?;
        tx.free(rec);
        if is_attack(sum) {
            results.push(tx, flow)?;
        }
    }
    Ok(false)
}

pub fn run(cfg: &Config, txcfg: TxConfig, threads: usize) -> RunOutcome {
    let total_frags = cfg.flows * cfg.frags_per_flow;
    let mem = MemConfig {
        max_threads: threads.max(1) + 2,
        stack_words: 1 << 12,
        heap_words: (cfg.flows * 64 + total_frags * 4 + (1 << 16)) as usize,
    };
    let rt = StmRuntime::new(mem, txcfg);
    let packets = TxQueue::create(&rt, total_frags + 2);
    let reassembly = TxHashtable::create(&rt, cfg.buckets);
    let results = TxQueue::create(&rt, cfg.flows + 2);

    // Expected attack count, computed while generating the traffic.
    let mut expected_attacks = 0u64;
    {
        let w = rt.spawn_worker();
        let mut rng = SplitMix64::new(cfg.seed);
        let mut frags = Vec::with_capacity(total_frags as usize);
        for flow in 0..cfg.flows {
            let mut sum = 0;
            for _ in 0..cfg.frags_per_flow {
                let payload = rng.below(1000);
                sum += payload;
                frags.push(pack(flow, payload));
            }
            if is_attack(sum) {
                expected_attacks += 1;
            }
        }
        // Interleave fragments of different flows (network reordering).
        for i in (1..frags.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            frags.swap(i, j);
        }
        for f in frags {
            packets.seq_push(&w, f);
        }
    }
    rt.reset_stats();

    let elapsed = run_parallel(&rt, threads, |w, _t| loop {
        let done = w.txn(|tx| process_fragment(tx, cfg, &packets, &reassembly, &results));
        if done {
            break;
        }
    });

    let stats = rt.collect_stats();
    let w = rt.spawn_worker();
    let verified = reassembly.seq_len(&w) == 0 && results.seq_len(&w) == expected_attacks;
    RunOutcome {
        benchmark: "intruder",
        threads,
        elapsed,
        stats,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::Mode;

    #[test]
    fn detects_the_right_attacks() {
        let cfg = Config::scaled(Scale::Test);
        for threads in [1, 4] {
            let out = run(&cfg, TxConfig::default(), threads);
            assert!(out.verified, "threads={threads}");
            assert_eq!(
                out.stats.commits,
                cfg.flows * cfg.frags_per_flow + threads as u64,
                "one commit per fragment + one drained-queue commit per thread"
            );
        }
    }

    #[test]
    fn flow_records_are_captured_on_creation() {
        let cfg = Config::scaled(Scale::Test);
        let out = run(&cfg, TxConfig::runtime_tree_full(), 2);
        assert!(out.verified);
        // Every flow's first fragment initializes a captured record (3
        // writes) plus a captured hashtable node (3 writes).
        assert!(out.stats.writes.elided_heap >= cfg.flows * 6);
    }

    #[test]
    fn all_modes_agree_on_attack_count() {
        let cfg = Config::scaled(Scale::Test);
        for mode in [
            Mode::Baseline,
            Mode::Compiler,
            Mode::CompilerInterproc,
            Mode::Runtime {
                log: stm::LogKind::Array,
                scope: stm::CheckScope::FULL,
            },
        ] {
            let out = run(&cfg, TxConfig::with_mode(mode), 4);
            assert!(out.verified, "{mode:?}");
        }
    }

    #[test]
    fn interproc_mode_elides_the_helper_pattern() {
        // The flow-record init writes flow through `alloc_flow_record`'s
        // return value: invisible to the intraprocedural compiler mode,
        // elided by the interprocedural one.
        let cfg = Config::scaled(Scale::Test);
        let intra = run(&cfg, TxConfig::with_mode(Mode::Compiler), 1);
        let inter = run(&cfg, TxConfig::with_mode(Mode::CompilerInterproc), 1);
        assert!(intra.verified && inter.verified);
        assert_eq!(intra.stats.writes.elided_static_interproc, 0);
        // Two S_FLOW_INIT writes per flow.
        assert!(inter.stats.writes.elided_static_interproc >= cfg.flows * 2);
        assert!(
            inter.stats.all_accesses().elided() > intra.stats.all_accesses().elided(),
            "interproc mode must elide strictly more"
        );
    }
}
