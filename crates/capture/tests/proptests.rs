//! Property-based tests for the allocation-log data structures.
//!
//! The central safety property from the paper (§3.1.2): capture analysis may
//! be *arbitrarily inaccurate* as long as it is **conservative** — it may
//! miss captured memory (false negatives, costing only performance) but must
//! never claim capture for memory that was not allocated by the transaction
//! (false positives, which would elide necessary barriers and break
//! isolation). The tree must additionally be *precise*. Every structure is
//! driven through `dyn CapturePolicy`, the one seam the barriers use, and
//! its range query is checked against the same model.

use capture::{AddrFilter, CapturePolicy, LogImpl, LogKind, RangeArray, RangeTree};
use proptest::prelude::*;

const WORD: u64 = 8;

/// A reference model: a plain list of disjoint ranges.
#[derive(Default, Clone)]
struct Model {
    ranges: Vec<(u64, u64, u32)>,
}

impl Model {
    fn insert(&mut self, start: u64, len: u64, level: u32) {
        self.ranges.push((start, start + len, level));
    }
    fn remove(&mut self, start: u64) {
        self.ranges.retain(|&(s, _, _)| s != start);
    }
    fn block(&self, addr: u64) -> Option<(u64, u64, u32)> {
        self.ranges
            .iter()
            .copied()
            .find(|&(s, e, _)| addr >= s && addr < e)
    }
    fn query(&self, addr: u64) -> Option<u32> {
        self.block(addr).map(|(_, _, l)| l)
    }
    /// Smallest live block start strictly above `addr`.
    fn next_start_after(&self, addr: u64) -> Option<u64> {
        self.ranges
            .iter()
            .map(|&(s, _, _)| s)
            .filter(|&s| s > addr)
            .min()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert { slot: u8, words: u8, level: u8 },
    Remove { slot: u8 },
    Clear,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), 1..16u8, 1..4u8).prop_map(|(slot, words, level)| Op::Insert {
                slot,
                words,
                level
            }),
            any::<u8>().prop_map(|slot| Op::Remove { slot }),
            Just(Op::Clear),
        ],
        0..60,
    )
}

/// Disjoint 4 KiB slots so ranges never overlap (the allocator guarantees
/// disjointness in the real system).
fn slot_base(slot: u8) -> u64 {
    4096 + slot as u64 * 4096
}

fn run_ops(log: &mut dyn CapturePolicy, model: &mut Model, ops: &[Op], live: &mut [bool; 256]) {
    for op in ops {
        match *op {
            Op::Insert { slot, words, level } => {
                if !live[slot as usize] {
                    let start = slot_base(slot);
                    let len = words as u64 * WORD;
                    log.insert(start, len, level as u32);
                    model.insert(start, len, level as u32);
                    live[slot as usize] = true;
                }
            }
            Op::Remove { slot } => {
                if live[slot as usize] {
                    let start = slot_base(slot);
                    log.remove(start, 16 * WORD);
                    model.remove(start);
                    live[slot as usize] = false;
                }
            }
            Op::Clear => {
                log.clear();
                model.ranges.clear();
                live.fill(false);
            }
        }
    }
}

fn probe_addrs() -> Vec<u64> {
    let mut v = Vec::new();
    for slot in 0..=255u8 {
        let b = slot_base(slot);
        v.extend([b, b + WORD, b + 15 * WORD, b + 16 * WORD, b + 2048]);
    }
    v.push(0);
    v.push(u64::MAX / 2 / WORD * WORD);
    v
}

/// Check `log.query_run` at every probe address and three limits (one
/// word, one slot, several slots) against the model: a captured run lies
/// in one live block at the returned level, every word of a shared run
/// misses the log, only `cacheable` structures offer a range on a hit, and
/// `precise` ones return exactly the block or the gap before the next one.
fn check_runs(log: &dyn CapturePolicy, m: &Model, cacheable: bool, precise: bool) {
    for a in probe_addrs() {
        for limit in [a + WORD, a + 16 * WORD, a + 3 * 4096] {
            let (level, range) = log.query_run(a, limit);
            prop_assert_eq!(level, log.query(a), "query_run vs query at {}", a);
            prop_assert!(range.is_some() || !precise, "no range at {}", a);
            match (level, range) {
                (Some(level), Some((s, e))) => {
                    prop_assert!(cacheable, "lossy structure offered a range at {}", a);
                    let block = m
                        .block(a)
                        .filter(|&(bs, be, bl)| bs <= s && e <= be && bl == level);
                    prop_assert!(s <= a && block.is_some(), "[{}, {}) not in a block", s, e);
                    prop_assert!(!precise || block == Some((s, e, level)));
                }
                (Some(level), None) => prop_assert_eq!(m.query(a), Some(level)),
                (None, Some((s, e))) => {
                    prop_assert!(s == a && a < e && e <= limit, "bad run [{}, {})", s, e);
                    // Words outside every live block miss any conservative
                    // log, so only the overlapping blocks need probing.
                    for &(bs, be, _) in &m.ranges {
                        for w in (bs.max(s)..be.min(e)).step_by(WORD as usize) {
                            prop_assert_eq!(log.query(w), None, "[{}, {}) hits {}", s, e, w);
                        }
                    }
                    let next = m.next_start_after(a).map_or(limit, |n| n.min(limit));
                    prop_assert!(!precise || e == next, "run from {} not maximal", a);
                }
                (None, None) => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_is_precise(ops in ops()) {
        let mut t = RangeTree::new();
        let mut m = Model::default();
        let mut live = [false; 256];
        run_ops(&mut t, &mut m, &ops, &mut live);
        for a in probe_addrs() {
            prop_assert_eq!(t.query(a), m.query(a), "addr {}", a);
        }
        prop_assert_eq!(t.entries(), m.ranges.len());
    }

    #[test]
    fn array_is_conservative(ops in ops()) {
        let mut arr: RangeArray<4> = RangeArray::new();
        let mut m = Model::default();
        let mut live = [false; 256];
        run_ops(&mut arr, &mut m, &ops, &mut live);
        for a in probe_addrs() {
            if let Some(level) = arr.query(a) {
                // Any hit must be a true hit with the right level.
                prop_assert_eq!(m.query(a), Some(level), "false positive at {}", a);
            }
        }
    }

    #[test]
    fn filter_is_conservative(ops in ops()) {
        let mut f = AddrFilter::with_log2_entries(8);
        let mut m = Model::default();
        let mut live = [false; 256];
        run_ops(&mut f, &mut m, &ops, &mut live);
        for a in probe_addrs() {
            if let Some(level) = f.query(a) {
                prop_assert_eq!(m.query(a), Some(level), "false positive at {}", a);
            }
        }
    }

    #[test]
    fn range_queries_match_the_model(ops in ops()) {
        // (structure, offers cacheable ranges, precise)
        let mut logs: Vec<(Box<dyn CapturePolicy>, bool, bool)> = vec![
            (Box::new(RangeTree::new()), true, true),
            (Box::new(RangeArray::<4>::new()), true, false),
            (Box::new(AddrFilter::with_log2_entries(8)), false, false),
        ];
        for kind in LogKind::ALL {
            // The enum-dispatch reference models one lookup per word.
            logs.push((Box::new(LogImpl::new(kind)), false, false));
        }
        for (log, cacheable, precise) in &mut logs {
            let mut m = Model::default();
            let mut live = [false; 256];
            run_ops(log.as_mut(), &mut m, &ops, &mut live);
            check_runs(log.as_ref(), &m, *cacheable, *precise);
        }
    }

    #[test]
    fn filter_exact_for_single_block(slot in 0..255u8, words in 1..16u64) {
        // A single block cannot self-collide destructively in a table much
        // larger than the block: every word must be found.
        let mut f = AddrFilter::with_log2_entries(12);
        f.insert(slot_base(slot), words * WORD, 1);
        for w in 0..words {
            prop_assert_eq!(f.query(slot_base(slot) + w * WORD), Some(1));
        }
        prop_assert_eq!(f.query(slot_base(slot) + words * WORD), None);
    }

    #[test]
    fn all_impls_agree_on_hits_after_few_inserts(
        blocks in proptest::collection::vec((0..64u8, 1..8u8), 1..4)
    ) {
        // With at most 3 disjoint blocks, even the lossy structures are
        // exact; all three must agree with each other.
        let mut impls: Vec<LogImpl> = LogKind::ALL.iter().map(|&k| LogImpl::new(k)).collect();
        let mut seen = std::collections::HashSet::new();
        for &(slot, words) in &blocks {
            if seen.insert(slot) {
                for l in impls.iter_mut() {
                    l.insert(slot_base(slot), words as u64 * WORD, 1);
                }
            }
        }
        for slot in 0..64u8 {
            let a = slot_base(slot);
            let answers: Vec<_> = impls.iter().map(|l| l.query(a)).collect();
            // Tree and array are both exact at <= 4 blocks and must agree.
            prop_assert_eq!(answers[0], answers[1],
                "tree and array disagree at slot {}", slot);
            // The filter may lose marks to cross-block slot collisions but
            // must stay a subset of the precise answer.
            if answers[2].is_some() {
                prop_assert_eq!(answers[2], answers[0],
                    "filter false positive at slot {}", slot);
            }
        }
    }
}
