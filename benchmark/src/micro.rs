//! Single-thread micro loops over public entry points (`Tx::read/write/
//! read_range`, `Tx::alloc/free`, `WorkerCtx::alloc_raw`, `LogImpl`): the
//! unit cost of one event in each layer, which the reconciliation model
//! multiplies by the per-op event counts of a workload. Every loop runs in
//! its own fresh runtime; every number is the median of several samples.

use std::hint::black_box;
use std::time::Instant;

use capture::{LogImpl, LogKind};
use stm::{Site, StmRuntime, TxConfig, WorkerCtx};
use txmem::MemConfig;

use crate::rep::{Scale, Values};
use crate::stats::median;

static S_SHARED: Site = Site::shared("bench.micro.shared");
static S_CAP: Site = Site::captured_escaped("bench.micro.captured");

/// Accesses per transaction in the barrier loops: enough that the fixed
/// transaction cost, measured separately and subtracted, is a small term.
const WORDS: u64 = 256;
/// Shared words sit one cache line apart, so consecutive accesses meet
/// distinct orec stripes the way a pointer-chasing op does.
const STRIDE: u64 = 8;

struct Plan {
    samples: usize,
    txns: u64,
}

/// Median ns per call of `f` over `plan.samples` batches of `plan.txns`
/// calls, after one warm-up batch.
fn ns_per_call(plan: &Plan, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let t0 = Instant::now();
        for _ in 0..plan.txns {
            f();
        }
        t0.elapsed().as_nanos() as f64 / plan.txns as f64
    };
    batch();
    let samples: Vec<f64> = (0..plan.samples).map(|_| batch()).collect();
    median(&samples).expect("at least one sample")
}

fn with_worker<T>(cfg: TxConfig, f: impl FnOnce(&StmRuntime, &mut WorkerCtx<'_>) -> T) -> T {
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let mut w = rt.spawn_worker();
    f(&rt, &mut w)
}

/// ns per access of a captured block under `cfg`: `WORDS` writes + reads
/// of a block the transaction allocated, minus the same transaction with
/// no accesses.
fn captured_access_ns(plan: &Plan, cfg: TxConfig) -> f64 {
    with_worker(cfg, |_, w| {
        let floor = ns_per_call(plan, || {
            w.txn(|tx| {
                let p = tx.alloc(WORDS * 8)?;
                tx.free(p);
                Ok(())
            })
        });
        let full = ns_per_call(plan, || {
            w.txn(|tx| {
                let p = tx.alloc(WORDS * 8)?;
                let mut acc = 0u64;
                for i in 0..WORDS {
                    tx.write(&S_CAP, p.word(i), i)?;
                    acc = acc.wrapping_add(tx.read(&S_CAP, p.word(i))?);
                }
                tx.free(p);
                Ok(black_box(acc))
            });
        });
        (full - floor).max(0.0) / (2 * WORDS) as f64
    })
}

/// Every unit-cost metric, by its per-layer name.
pub fn run(scale: Scale) -> Values {
    let plan = match scale {
        Scale::Full => Plan {
            samples: 9,
            txns: 400,
        },
        Scale::Smoke => Plan {
            samples: 3,
            txns: 20,
        },
    };
    let mut v = Values::new();
    let mut put = |name: &str, ns: f64| {
        v.insert(name.to_string(), ns);
    };
    let nursery = TxConfig::runtime_tree_nursery();
    let tree = TxConfig::runtime_tree_full();

    // --- stm.worker: whole-transaction fixed cost, and shared barriers ---
    with_worker(nursery, |rt, w| {
        let buf = rt.alloc_global(WORDS * STRIDE * 8);
        let one = Plan {
            samples: plan.samples,
            txns: plan.txns * 64,
        };
        let empty = ns_per_call(&one, || w.txn(|_| Ok(())));
        put("stm.worker.empty_txn_ns", empty);
        put(
            "stm.worker.ro1_txn_ns",
            ns_per_call(&one, || {
                black_box(w.txn(|tx| tx.read(&S_SHARED, buf)));
            }),
        );
        put(
            "stm.worker.rw1_txn_ns",
            ns_per_call(&one, || {
                w.txn(|tx| {
                    let x = tx.read(&S_SHARED, buf)?;
                    tx.write(&S_SHARED, buf, x.wrapping_add(1))
                })
            }),
        );
        // A read costs its read-set entry and commit-time validation; a
        // write its orec lock, undo entry and commit-time release — so
        // both are measured through whole transactions, minus the empty one.
        let reads = ns_per_call(&plan, || {
            w.txn(|tx| {
                let mut acc = 0u64;
                for i in 0..WORDS {
                    acc = acc.wrapping_add(tx.read(&S_SHARED, buf.word(i * STRIDE))?);
                }
                Ok(black_box(acc))
            });
        });
        put(
            "stm.barrier.full_read_ns",
            (reads - empty).max(0.0) / WORDS as f64,
        );
        let writes = ns_per_call(&plan, || {
            w.txn(|tx| {
                for i in 0..WORDS {
                    tx.write(&S_SHARED, buf.word(i * STRIDE), i)?;
                }
                Ok(())
            })
        });
        put(
            "stm.barrier.full_write_ns",
            (writes - empty).max(0.0) / WORDS as f64,
        );

        // --- stm.txalloc / txmem.alloc ---
        const PAIRS: u64 = 16;
        let pairs = ns_per_call(&plan, || {
            w.txn(|tx| {
                for _ in 0..PAIRS {
                    let p = tx.alloc(64)?;
                    tx.free(p);
                }
                Ok(())
            })
        });
        put(
            "stm.txalloc.alloc_free_ns",
            (pairs - empty).max(0.0) / PAIRS as f64,
        );
        put(
            "txmem.alloc.raw_alloc_free_ns",
            ns_per_call(&one, || {
                let p = w.alloc_raw(64);
                w.free_raw(black_box(p));
            }),
        );
    });

    // --- stm.barrier: captured accesses by verdict ---
    put(
        "stm.barrier.captured_nursery_ns",
        captured_access_ns(&plan, nursery),
    );
    put(
        "stm.barrier.captured_tree_ns",
        captured_access_ns(&plan, tree),
    );
    with_worker(tree, |_, w| {
        let floor = ns_per_call(&plan, || w.txn(|_| Ok(())));
        let direct = ns_per_call(&plan, || {
            w.txn(|tx| {
                let f = tx.stack_push(WORDS as usize);
                let mut acc = 0u64;
                for i in 0..WORDS {
                    tx.store_direct(f.word(i), i);
                    acc = acc.wrapping_add(tx.load_direct(f.word(i)));
                }
                tx.stack_pop(WORDS as usize);
                Ok(black_box(acc))
            });
        });
        put(
            "stm.barrier.direct_ns",
            (direct - floor).max(0.0) / (2 * WORDS) as f64,
        );
        let stack = ns_per_call(&plan, || {
            w.txn(|tx| {
                let f = tx.stack_push(WORDS as usize);
                let mut acc = 0u64;
                for i in 0..WORDS {
                    tx.write(&S_CAP, f.word(i), i)?;
                    acc = acc.wrapping_add(tx.read(&S_CAP, f.word(i))?);
                }
                tx.stack_pop(WORDS as usize);
                Ok(black_box(acc))
            });
        });
        put(
            "stm.barrier.captured_stack_ns",
            (stack - floor).max(0.0) / (2 * WORDS) as f64,
        );

        const BLOCK: u64 = 4096;
        const SPAN: u64 = 64;
        let mut buf = [0u64; SPAN as usize];
        let alloc_only = ns_per_call(&plan, || {
            w.txn(|tx| {
                let p = tx.alloc(BLOCK * 8)?;
                tx.free(p);
                Ok(())
            })
        });
        let ranged = ns_per_call(&plan, || {
            w.txn(|tx| {
                let p = tx.alloc(BLOCK * 8)?;
                for s in 0..BLOCK / SPAN {
                    tx.write_range(&S_CAP, p.word(s * SPAN), &buf)?;
                    tx.read_range(&S_CAP, p.word(s * SPAN), &mut buf)?;
                }
                tx.free(p);
                Ok(black_box(buf[0]))
            });
        });
        put(
            "stm.barrier.ranged64_captured_ns_per_word",
            (ranged - alloc_only).max(0.0) / (2 * BLOCK) as f64,
        );
    });

    // --- capture: the allocation logs themselves ---
    // Four blocks: what the cache-line array holds without going lossy.
    const BLOCKS: u64 = 4;
    const BLOCK_BYTES: u64 = 256;
    let calls = Plan {
        samples: plan.samples,
        txns: plan.txns * 8,
    };
    for (kind, name) in [
        (LogKind::Tree, "capture.log.tree_query_ns"),
        (LogKind::Array, "capture.log.array_query_ns"),
        (LogKind::Filter, "capture.log.filter_query_ns"),
    ] {
        let mut log = LogImpl::new(kind);
        for b in 0..BLOCKS {
            log.insert(0x1_0000 + b * 0x1000, BLOCK_BYTES, 1);
        }
        let queries = BLOCKS * BLOCK_BYTES / 8;
        let per_sweep = ns_per_call(&calls, || {
            let mut hits = 0u32;
            for b in 0..BLOCKS {
                for off in (0..BLOCK_BYTES).step_by(8) {
                    hits += log.query(black_box(0x1_0000 + b * 0x1000 + off)).is_some() as u32;
                }
            }
            black_box(hits);
        });
        put(name, per_sweep / queries as f64);
    }
    let mut log = LogImpl::new(LogKind::Tree);
    const INSERTS: u64 = 64;
    let per_fill = ns_per_call(&calls, || {
        for b in 0..INSERTS {
            log.insert(0x1_0000 + b * 0x1000, BLOCK_BYTES, 1);
        }
        black_box(log.entries());
        log.clear();
    });
    put("capture.log.tree_insert_ns", per_fill / INSERTS as f64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_yields_every_unit_cost() {
        let v = run(Scale::Smoke);
        for name in [
            "stm.worker.empty_txn_ns",
            "stm.worker.ro1_txn_ns",
            "stm.worker.rw1_txn_ns",
            "stm.barrier.direct_ns",
            "stm.barrier.full_read_ns",
            "stm.barrier.full_write_ns",
            "stm.barrier.captured_nursery_ns",
            "stm.barrier.captured_tree_ns",
            "stm.barrier.captured_stack_ns",
            "stm.barrier.ranged64_captured_ns_per_word",
            "stm.txalloc.alloc_free_ns",
            "txmem.alloc.raw_alloc_free_ns",
            "capture.log.tree_query_ns",
            "capture.log.array_query_ns",
            "capture.log.filter_query_ns",
            "capture.log.tree_insert_ns",
        ] {
            let ns = v.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(ns.is_finite() && *ns >= 0.0, "{name} = {ns}");
        }
        assert_eq!(v.len(), 16);
    }
}
