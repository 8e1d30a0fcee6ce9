//! Differential oracle for the transactional pool (ISSUE 10 acceptance):
//! random op scripts run against [`TxPool`] under every allocation-log
//! kind × nursery on/off, and every arm must match the
//! sequential [`ModelPool`] bit-for-bit — per-op return values, final
//! contents, and all twelve header counters. That includes `dup_skips`,
//! which depends on bloom-filter *false positives*: the model earns
//! parity by simulating the filter bit-exactly, not by cheating with a
//! perfect set.
//!
//! On top of the model comparison every arm runs [`TxPool::seq_check`]
//! (index cross-consistency, exact byte accounting, budget bound), and
//! the nursery-on/off pair must agree on the capture-independent stats
//! line (commits, aborts, transactional allocs/frees) — the pool's
//! behaviour may not depend on which capture classifier is loaded.

use pool::model::ModelPool;
use pool::{Item, PoolConfig, PoolCounters, PoolEntry, TxPool};
use proptest::prelude::*;
use stm::{CheckScope, LogKind, Mode, StmRuntime, TxConfig, TxObject};
use txmem::MemConfig;

/// Twelve max-size items; small enough that scripts routinely evict and
/// hit the rejected-insert path.
const BUDGET: u64 = 12 * Item::BYTES;
/// Tiny filter (128 bits) so bloom false positives actually occur and
/// the `dup_skips` mirror is tested, not just vacuously equal.
const BLOOM_WORDS: u64 = 2;

#[derive(Clone, Debug)]
enum Op {
    Insert {
        id: u64,
        sender: u64,
        nonce: u64,
        prio: u64,
        payload_words: u64,
    },
    Remove {
        id: u64,
    },
    PopBest,
    Promote {
        id: u64,
        prio: u64,
    },
    RemoveSender {
        sender: u64,
    },
    Contains {
        id: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1..28u64, 0..6u64, 0..8u64, 0..8u64, 0..4u64).prop_map(
            |(id, sender, nonce, prio, payload_words)| Op::Insert {
                id,
                sender,
                nonce,
                prio,
                payload_words,
            }
        ),
        2 => (1..28u64).prop_map(|id| Op::Remove { id }),
        2 => Just(Op::PopBest),
        2 => (1..28u64, 0..8u64).prop_map(|(id, prio)| Op::Promote { id, prio }),
        1 => (0..6u64).prop_map(|sender| Op::RemoveSender { sender }),
        1 => (1..28u64).prop_map(|id| Op::Contains { id }),
    ]
}

fn script() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(), 1..80)
}

/// One op against the real pool; the outcome is rendered with `Debug` so
/// `InsertOutcome`, `Option<PoolEntry>`, `bool`, and `u64` returns all
/// compare through one channel.
fn apply(pool: &TxPool, tx: &mut stm::Tx<'_, '_>, op: &Op) -> stm::TxResult<String> {
    Ok(match *op {
        Op::Insert {
            id,
            sender,
            nonce,
            prio,
            payload_words,
        } => format!(
            "{:?}",
            pool.insert(tx, id, sender, nonce, prio, payload_words)?
        ),
        Op::Remove { id } => format!("{:?}", pool.remove(tx, id)?),
        Op::PopBest => format!("{:?}", pool.pop_best(tx)?),
        Op::Promote { id, prio } => format!("{:?}", pool.promote(tx, id, prio)?),
        Op::RemoveSender { sender } => format!("{:?}", pool.remove_sender(tx, sender)?),
        Op::Contains { id } => format!("{:?}", pool.contains(tx, id)?),
    })
}

/// The same op against the sequential model.
fn apply_model(m: &mut ModelPool, op: &Op) -> String {
    match *op {
        Op::Insert {
            id,
            sender,
            nonce,
            prio,
            payload_words,
        } => format!("{:?}", m.insert(id, sender, nonce, prio, payload_words)),
        Op::Remove { id } => format!("{:?}", m.remove(id)),
        Op::PopBest => format!("{:?}", m.pop_best()),
        Op::Promote { id, prio } => format!("{:?}", m.promote(id, prio)),
        Op::RemoveSender { sender } => format!("{:?}", m.remove_sender(sender)),
        Op::Contains { id } => format!("{:?}", m.contains(id)),
    }
}

struct PoolRun {
    outcomes: Vec<String>,
    contents: Vec<PoolEntry>,
    counters: PoolCounters,
    /// Capture-independent stats: (commits, aborts, tx_allocs, tx_frees).
    stats: (u64, u64, u64, u64),
}

/// Run the script one transaction per op.
fn run_pool(script: &[Op], cfg: TxConfig) -> PoolRun {
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let pool = TxPool::create(
        &rt,
        PoolConfig {
            budget_bytes: BUDGET,
            bloom_words: BLOOM_WORDS,
        },
    );
    let mut w = rt.spawn_worker();
    let mut outcomes = Vec::with_capacity(script.len());
    for op in script {
        outcomes.push(w.txn(|tx| apply(&pool, tx, op)));
    }
    pool.seq_check(&w);
    PoolRun {
        outcomes,
        contents: pool.seq_collect(&w),
        counters: pool.seq_counters(&w),
        stats: (
            w.stats.commits,
            w.stats.aborts,
            w.stats.tx_allocs,
            w.stats.tx_frees,
        ),
    }
}

fn run_model(script: &[Op]) -> (Vec<String>, Vec<PoolEntry>, PoolCounters) {
    let mut m = ModelPool::new(BUDGET, BLOOM_WORDS);
    let outcomes = script.iter().map(|op| apply_model(&mut m, op)).collect();
    (outcomes, m.contents(), m.counters())
}

fn log_cfg(log: LogKind, nursery: bool) -> TxConfig {
    let mut cfg = TxConfig::with_mode(Mode::Runtime {
        log,
        scope: CheckScope::FULL,
    });
    cfg.nursery = nursery;
    cfg
}

/// Config arms the acceptance clause names: every log kind, and nursery
/// on/off for the tree log.
fn arms() -> Vec<(&'static str, TxConfig)> {
    vec![
        ("tree", TxConfig::runtime_tree_full()),
        ("tree+nursery", TxConfig::runtime_tree_nursery()),
        ("array", log_cfg(LogKind::Array, false)),
        ("filtering", log_cfg(LogKind::Filter, false)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The tentpole's oracle: every arm reproduces the sequential model's
    // outcome stream, contents, and counters exactly, and the nursery
    // on/off pair agrees on the capture-independent stats line.
    #[test]
    fn pool_matches_sequential_model(script in script()) {
        let (m_out, m_contents, m_counters) = run_model(&script);
        let mut tree_pair: Vec<(u64, u64, u64, u64)> = Vec::new();
        for (name, cfg) in arms() {
            let r = run_pool(&script, cfg);
            prop_assert_eq!(&r.outcomes, &m_out, "op outcomes diverged in arm {}", name);
            prop_assert_eq!(&r.contents, &m_contents, "contents diverged in arm {}", name);
            prop_assert_eq!(&r.counters, &m_counters, "counters diverged in arm {}", name);
            if name.starts_with("tree") {
                tree_pair.push(r.stats);
            }
        }
        prop_assert_eq!(
            tree_pair[0], tree_pair[1],
            "nursery on/off changed commits/aborts/allocs/frees"
        );
    }
}

/// Deterministic vacuity guard: a fixed script that provably drives the
/// interesting paths — eviction, duplicate hit, bloom-negative skip,
/// rejection, promote, sender purge — so the property above cannot pass
/// on scripts that never leave the easy region.
#[test]
fn oracle_script_space_is_not_vacuous() {
    let mut script: Vec<Op> = (1..=16u64)
        .map(|id| Op::Insert {
            id,
            sender: id % 3,
            nonce: id,
            prio: id,
            payload_words: id % 4,
        })
        .collect();
    script.push(Op::Insert {
        id: 16,
        sender: 0,
        nonce: 99,
        prio: 7,
        payload_words: 0,
    }); // id 16 has the best priority, so it survived eviction: duplicate
    script.push(Op::Insert {
        id: 100,
        sender: 5,
        nonce: 0,
        prio: 0,
        payload_words: 0,
    }); // worst prio into a full pool: rejected
    script.push(Op::Promote { id: 14, prio: 0 });
    script.push(Op::RemoveSender { sender: 1 });
    script.push(Op::PopBest);
    script.push(Op::Remove { id: 15 });

    let (m_out, m_contents, m_counters) = run_model(&script);
    assert!(
        m_counters.evicted > 0,
        "script never evicts: {m_counters:?}"
    );
    assert!(m_counters.dup_hits > 0, "script never hits a duplicate");
    assert!(m_counters.rejected > 0, "script never rejects an insert");
    assert!(
        m_counters.dup_skips > 0,
        "script never skips on a bloom negative"
    );
    assert!(m_counters.promoted > 0 && m_counters.purged > 0 && m_counters.popped > 0);

    for (name, cfg) in arms() {
        let r = run_pool(&script, cfg);
        assert_eq!(r.outcomes, m_out, "outcomes diverged in arm {name}");
        assert_eq!(r.contents, m_contents, "contents diverged in arm {name}");
        assert_eq!(r.counters, m_counters, "counters diverged in arm {name}");
    }
}
