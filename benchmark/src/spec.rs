//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! the acceptance driver's copy of this table (a test keeps the two in
//! step); later issues refer to these names.

use Better::{Higher as H, Lower as L};
use Workload::*;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PoolMixed,
    PoolLookup,
    PoolDurable,
    PoolMixed2t,
    VacationHigh,
    TransferShort,
}

pub struct WorkloadSpec {
    pub id: Workload,
    pub name: &'static str,
    pub threads: usize,
    /// Wall seconds one full-size repetition is expected to take (set-up,
    /// timed phase and checks); the watchdog's deadline is ten times this.
    pub expected_s: f64,
    /// Whether the harness owns the op loop and so sees per-thread
    /// progress (vacation's loop lives inside `stamp`).
    pub reports_progress: bool,
    /// Listed in `BENCHMARK.json`, whose workloads must never fail an op
    /// and must repeat within the bounds. `pool-mixed-2t` is not: at the
    /// seed commit it wedges in most repetitions. `vacation-high` is not:
    /// its working set is far larger than the caches, and on the 2-core VM
    /// this was written on its ops/s followed the host's load through
    /// minutes-long shifts of 15-40% (see README.md).
    pub in_driver: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        id: Workload::PoolMixed,
        name: "pool-mixed",
        threads: 1,
        expected_s: 5.0,
        reports_progress: true,
        in_driver: true,
        why: "1 thread, 1M ops of the expt-pool mix on a 1 MiB pool: the macro consumer with zero \
              contention, so pool indices, full barriers, txalloc and nursery are the cost",
    },
    WorkloadSpec {
        id: Workload::PoolLookup,
        name: "pool-lookup",
        threads: 1,
        expected_s: 4.0,
        reports_progress: true,
        in_driver: true,
        why: "1 thread, 90% contains on a prefilled pool: ~200 ns read-only clock-silent \
              transactions, so per-transaction fixed cost dominates and allocator or durable \
              changes must not move it",
    },
    WorkloadSpec {
        id: Workload::PoolDurable,
        name: "pool-durable",
        threads: 1,
        expected_s: 12.0,
        reports_progress: true,
        in_driver: true,
        why: "pool-mixed's exact op stream with the strict-flush redo log on, then recovery from \
              the disk bytes alone: the delta to pool-mixed is the durability tax",
    },
    WorkloadSpec {
        id: Workload::PoolMixed2t,
        name: "pool-mixed-2t",
        threads: 2,
        expected_s: 8.0,
        reports_progress: true,
        in_driver: false,
        why: "pool-mixed on 2 threads, 1M ops each: the only workload where the contention \
              ladder, PoolHdr orec conflicts and the serialization token do most of the work",
    },
    WorkloadSpec {
        id: Workload::VacationHigh,
        name: "vacation-high",
        threads: 2,
        expected_s: 5.0,
        reports_progress: false,
        in_driver: false,
        why: "2 threads, STAMP vacation high contention at 2^19 tasks: the paper's flagship \
              captured-allocation app, rbtree-heavy barriers, moderate contention",
    },
    WorkloadSpec {
        id: Workload::TransferShort,
        name: "transfer-short",
        threads: 2,
        expected_s: 4.0,
        reports_progress: true,
        in_driver: true,
        why: "2 threads, 4M transactions each of 2 reads + 2 writes over 65536 words: begin, \
              validate, clock and commit are the whole cost and every writer hits the clock",
    },
];

impl Workload {
    pub fn spec(self) -> &'static WorkloadSpec {
        WORKLOADS
            .iter()
            .find(|w| w.id == self)
            .expect("every workload has a spec row")
    }

    pub fn name(self) -> &'static str {
        self.spec().name
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).map(|w| w.id)
    }

    pub fn is_pool(self) -> bool {
        !matches!(self, Workload::VacationHigh | Workload::TransferShort)
    }
}

/// One end-to-end metric: what a user of the system sees, measured with
/// tracing off as the median over a workload's timed repetitions.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub why: &'static str,
    /// Share of the baseline median by which the metric may worsen on the
    /// given workload before `bench compare` calls it a regression; `None`
    /// where the metric does not apply.
    pub bound: fn(Workload) -> Option<f64>,
    /// The one bound `BENCHMARK.json` carries for the acceptance driver
    /// (it has no per-workload bounds); `None` keeps the metric out of
    /// that file — see README.md for which and why.
    pub driver_bound: Option<f64>,
}

/// A worsening of `setup_s` smaller than this many seconds is never a
/// regression, whatever its share.
pub const SETUP_FLOOR_S: f64 = 0.1;

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        why: "committed logical ops (pool ops, vacation tasks, transfers) per second of the \
              timed phase",
        bound: |w| {
            Some(if matches!(w, PoolMixed | PoolLookup) {
                0.05
            } else {
                0.10
            })
        },
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "op_p50_ns",
        unit: "ns",
        better: Better::Lower,
        why: "median latency of one w.txn(..) call, sampled 1 op in 16",
        bound: |w| w.is_pool().then_some(0.05),
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "op_p99_ns",
        unit: "ns",
        better: Better::Lower,
        why: "99th-percentile latency of one w.txn(..) call (>= 600 samples beyond it)",
        bound: |w| w.is_pool().then_some(0.10),
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        why: "ops not completed and verified over ops attempted; a wedged, panicked or \
              check-failing repetition counts all its ops",
        bound: |_| Some(0.0),
        driver_bound: None,
    },
    EndToEnd {
        name: "log_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        why: "redo-log bytes on the SimDisk per op; repeats exactly",
        bound: |w| (w == PoolDurable).then_some(0.005),
        driver_bound: None,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        why: "TxHeap::bytes_allocated over the pool's live_bytes at quiesce; repeats exactly",
        bound: |w| matches!(w, PoolMixed | PoolDurable).then_some(0.005),
        driver_bound: None,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        why: "runtime and pool construction, prefill, op pre-drawing, vacation table build",
        bound: |_| Some(0.25),
        driver_bound: Some(0.25),
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric of the traced run: `(name, unit, better)`. Layers
/// are the repo's modules; a metric a workload does not exercise reads 0.
pub type PerLayer = (&'static str, &'static str, Better);

pub const PER_LAYER: &[PerLayer] = &[
    // pool (ops.rs / index.rs): closure-attempt spans per op kind.
    ("pool.ops.insert_ns_p50", "ns", L),
    ("pool.ops.insert_ns_p99", "ns", L),
    ("pool.ops.insert_time_share", "ratio", L),
    ("pool.ops.pop_best_ns_p50", "ns", L),
    ("pool.ops.pop_best_ns_p99", "ns", L),
    ("pool.ops.pop_best_time_share", "ratio", L),
    ("pool.ops.remove_ns_p50", "ns", L),
    ("pool.ops.remove_ns_p99", "ns", L),
    ("pool.ops.remove_time_share", "ratio", L),
    ("pool.ops.promote_ns_p50", "ns", L),
    ("pool.ops.promote_ns_p99", "ns", L),
    ("pool.ops.promote_time_share", "ratio", L),
    ("pool.ops.remove_sender_ns_p50", "ns", L),
    ("pool.ops.remove_sender_ns_p99", "ns", L),
    ("pool.ops.remove_sender_time_share", "ratio", L),
    ("pool.ops.contains_ns_p50", "ns", L),
    ("pool.ops.contains_ns_p99", "ns", L),
    ("pool.ops.contains_time_share", "ratio", L),
    ("pool.ops.evicted_per_insert", "ratio", L),
    ("pool.ops.rejected_share", "ratio", L),
    ("pool.ops.dup_skip_ratio", "ratio", H),
    ("pool.ops.attempts_per_op", "ratio", L),
    // stm.worker: transaction fixed cost.
    ("stm.worker.txn_self_ns", "ns", L),
    ("stm.worker.empty_txn_ns", "ns", L),
    ("stm.worker.ro1_txn_ns", "ns", L),
    ("stm.worker.rw1_txn_ns", "ns", L),
    // stm.barrier: event counts per op, then unit costs from micro loops.
    ("stm.barrier.reads_per_op", "1/op", L),
    ("stm.barrier.writes_per_op", "1/op", L),
    ("stm.barrier.full_per_op", "1/op", L),
    ("stm.barrier.elided_heap_per_op", "1/op", H),
    ("stm.barrier.elided_stack_per_op", "1/op", H),
    ("stm.barrier.nursery_hits_per_op", "1/op", H),
    ("stm.barrier.ranged_spans_per_op", "1/op", H),
    ("stm.barrier.elided_fraction", "ratio", H),
    ("stm.barrier.direct_ns", "ns", L),
    ("stm.barrier.full_read_ns", "ns", L),
    ("stm.barrier.full_write_ns", "ns", L),
    ("stm.barrier.captured_nursery_ns", "ns", L),
    ("stm.barrier.captured_tree_ns", "ns", L),
    ("stm.barrier.captured_stack_ns", "ns", L),
    ("stm.barrier.ranged64_captured_ns_per_word", "ns/word", L),
    ("stm.barrier.capture_speedup", "ratio", H),
    // stm.commit / stm.clock.
    ("stm.commit.ro_share", "ratio", H),
    ("stm.clock.adopts_per_commit", "ratio", L),
    ("stm.commit.scale_eff_2t", "ratio", H),
    // stm.contention.
    ("stm.contention.abort_share", "ratio", L),
    ("stm.contention.backoff_waits_per_kop", "1/kop", L),
    ("stm.contention.karma_per_kop", "1/kop", L),
    ("stm.contention.serializations_per_kop", "1/kop", L),
    ("stm.contention.attempts_max", "count", L),
    ("stm.contention.conflict_read_locked_share", "ratio", L),
    ("stm.contention.conflict_write_locked_share", "ratio", L),
    ("stm.contention.conflict_validation_share", "ratio", L),
    ("stm.contention.wedged_reps", "count", L),
    // stm.txalloc / stm.nursery / txmem.alloc.
    ("stm.txalloc.allocs_per_op", "1/op", L),
    ("stm.txalloc.frees_per_op", "1/op", L),
    ("stm.txalloc.alloc_free_ns", "ns", L),
    ("stm.nursery.regions_per_kop", "1/kop", L),
    ("stm.nursery.bytes_recycled_per_op", "B/op", L),
    ("txmem.alloc.heap_bytes", "B", L),
    ("txmem.alloc.space_amp", "ratio", L),
    ("txmem.alloc.raw_alloc_free_ns", "ns", L),
    // stm.durable.
    ("stm.durable.words_per_op", "1/op", L),
    ("stm.durable.skipped_per_op", "1/op", H),
    ("stm.durable.flushes_per_op", "1/op", L),
    ("stm.durable.appends_per_op", "1/op", L),
    ("stm.durable.bytes_per_op", "B/op", L),
    ("stm.durable.skip_ratio", "ratio", H),
    ("stm.durable.recover_s", "s", L),
    ("stm.durable.tax", "ratio", L),
    // capture: the three allocation logs through the public LogImpl.
    ("capture.log.tree_query_ns", "ns", L),
    ("capture.log.array_query_ns", "ns", L),
    ("capture.log.filter_query_ns", "ns", L),
    ("capture.log.tree_insert_ns", "ns", L),
    // stamp.
    ("stamp.vacation.barriers_per_task", "1/op", L),
    ("stamp.vacation.scale_eff_2t", "ratio", H),
    ("stamp.vacation.baseline_ops_per_s", "1/s", H),
    // Reconciliation of layer numbers with the wall clock, and the cost
    // of observing.
    ("model.predicted_ns_per_op", "ns", L),
    ("model.residual_share", "ratio", L),
    ("trace.overhead_share", "ratio", L),
    ("trace.spans", "count", H),
];

/// The whole vocabulary as text (`bench list`).
pub fn describe() -> String {
    let mut out = String::from("workloads (all closed-loop, one process, at most 2 threads):\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "  {:<15} {} thread{}{}\n      {}\n",
            w.name,
            w.threads,
            if w.threads == 1 { "" } else { "s" },
            if w.in_driver {
                ""
            } else {
                "  [not in BENCHMARK.json]"
            },
            w.why.split_whitespace().collect::<Vec<_>>().join(" ")
        ));
    }
    out.push_str("\nend-to-end metrics (tracing off, median of the timed repetitions):\n");
    for m in &END_TO_END {
        let bounds: Vec<String> = WORKLOADS
            .iter()
            .filter_map(|w| (m.bound)(w.id).map(|b| format!("{} {}%", w.name, 100.0 * b)))
            .collect();
        out.push_str(&format!(
            "  {:<17} [{}, {} is better]{}\n      {}\n      may worsen by: {}\n",
            m.name,
            m.unit,
            m.better.name(),
            if m.driver_bound.is_some() {
                ""
            } else {
                "  [not in BENCHMARK.json]"
            },
            m.why.split_whitespace().collect::<Vec<_>>().join(" "),
            bounds.join(", ")
        ));
    }
    out.push_str(
        "\nper-layer metrics (traced pass; 0 where a workload does not exercise the layer):\n",
    );
    for (name, unit, better) in PER_LAYER {
        out.push_str(&format!(
            "  {name:<46} [{unit}, {} is better]\n",
            better.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in all {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let b = benchmark_json();
        let driver_workloads: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.in_driver)
            .map(|w| w.name)
            .collect();
        assert_eq!(names(&b, "workloads"), driver_workloads);
        let driver_e2e: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.driver_bound.is_some())
            .collect();
        assert_eq!(
            names(&b, "end_to_end"),
            driver_e2e.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (got, want) in b
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(driver_e2e)
        {
            assert_eq!(got.get("unit").unwrap().as_str(), Some(want.unit));
            assert_eq!(
                got.get("better").unwrap().as_str(),
                Some(want.better.name())
            );
            assert_eq!(got.get("bound").unwrap().as_f64(), want.driver_bound);
        }
        assert_eq!(
            names(&b, "per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (got, want) in b
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(got.get("unit").unwrap().as_str(), Some(want.1));
            assert_eq!(got.get("better").unwrap().as_str(), Some(want.2.name()));
        }
        assert_eq!(
            b.get("paths").unwrap().as_array().unwrap(),
            [Value::str("benchmark")]
        );
    }

    #[test]
    fn bounds_follow_the_issue() {
        let b = |m: &str, w| (end_to_end(m).unwrap().bound)(w);
        assert_eq!(b("ops_per_s", PoolMixed), Some(0.05));
        assert_eq!(b("ops_per_s", TransferShort), Some(0.10));
        assert_eq!(b("op_p99_ns", VacationHigh), None);
        assert_eq!(b("log_bytes_per_op", PoolMixed), None);
        assert_eq!(b("log_bytes_per_op", PoolDurable), Some(0.005));
        assert_eq!(b("space_amp", PoolLookup), None);
        assert_eq!(Workload::by_name("pool-mixed-2t"), Some(PoolMixed2t));
        assert_eq!(Workload::by_name("nope"), None);
    }
}
