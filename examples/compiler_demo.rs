//! The STM compiler pipeline (paper §3.2) end to end.
//!
//! ```sh
//! cargo run --release --example compiler_demo
//! ```
//!
//! Compiles a producer/consumer program written in the TL mini-language
//! twice — naively (every access in an atomic block becomes a barrier) and
//! with compiler capture analysis — then runs both on four threads and
//! compares the number of barriers actually executed.

use stm::{StmRuntime, TxConfig};
use txcc::{build, OptLevel, Vm};
use txmem::MemConfig;

const SRC: &str = r#"
// Append a node [value, tag, next] to an intrusive shared list.
// The node is allocated inside the transaction: its initialization is
// captured, only the publication touches shared memory.
fn append(head, value) {
    atomic {
        var node = malloc(24);
        node[0] = value;            // captured: elided by the compiler
        node[1] = value * 2 + 1;    // captured: elided
        node[2] = head[0];          // captured write, shared read
        head[0] = node;             // publication: keeps its barrier
    }
    return 0;
}

fn worker(head, n, seed) {
    var i = 0;
    while (i < n) {
        var z = append(head, seed * 100000 + i);
        i = i + 1;
    }
    return 0;
}

// Sum the list transactionally (all shared reads).
fn sum(head) {
    var total = 0;
    atomic {
        var cur = head[0];
        while (cur != 0) {
            total = total + cur[0];
            cur = cur[2];
        }
    }
    return total;
}
"#;

fn run(opt: OptLevel) -> (u64, u64, txcc::vm::VmStats) {
    let prog = build(SRC, opt).expect("TL program must compile");
    println!(
        "[{opt:?}] static instrumentation: {} barriers emitted, {} accesses elided",
        prog.stats.barriers, prog.stats.elided
    );

    let rt = StmRuntime::new(MemConfig::default(), TxConfig::default());
    let head = rt.alloc_global(8);
    let total_barriers = std::sync::Mutex::new(txcc::vm::VmStats::default());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let rt = &rt;
            let prog = &prog;
            let total = &total_barriers;
            s.spawn(move || {
                let mut w = rt.spawn_worker();
                let mut vm = Vm::new(prog);
                vm.run(&mut w, "worker", &[head.raw(), 500, t]);
                let mut g = total.lock().unwrap();
                g.tx_loads += vm.stats.tx_loads;
                g.tx_stores += vm.stats.tx_stores;
                g.direct_loads += vm.stats.direct_loads;
                g.direct_stores += vm.stats.direct_stores;
            });
        }
    });

    let mut w = rt.spawn_worker();
    let mut vm = Vm::new(&prog);
    let total = vm.run(&mut w, "sum", &[head.raw()]);
    // Count list length sequentially for the check.
    let mut len = 0;
    let mut cur: txmem::Addr = w.load_as(head);
    while !cur.is_null() {
        len += 1;
        cur = w.load_as(cur.word(2));
    }
    let barrier_stats = *total_barriers.lock().unwrap();
    (total, len, barrier_stats)
}

fn main() {
    let (sum_naive, len_naive, naive) = run(OptLevel::Naive);
    let (sum_opt, len_opt, opt) = run(OptLevel::CaptureAnalysis);
    let (sum_inter, len_inter, inter) = run(OptLevel::CaptureInterproc);

    assert_eq!(len_naive, 2000);
    assert_eq!(len_opt, 2000);
    assert_eq!(len_inter, 2000);
    assert_eq!(sum_naive, sum_opt, "same program, same answer");
    assert_eq!(sum_naive, sum_inter, "same program, same answer");

    let naive_total = naive.tx_loads + naive.tx_stores;
    let opt_total = opt.tx_loads + opt.tx_stores;
    let inter_total = inter.tx_loads + inter.tx_stores;
    println!();
    println!("barriers executed (naive)             : {naive_total}");
    println!("barriers executed (capture analysis)  : {opt_total}");
    println!("barriers executed (interprocedural)   : {inter_total}");
    println!(
        "removed by the compiler               : {:.1}%",
        100.0 * (naive_total - opt_total) as f64 / naive_total as f64
    );
    assert!(opt_total < naive_total);
    assert!(
        inter_total <= opt_total,
        "the summary pass never executes more barriers"
    );
    println!("ok: all compilations agree, sum = {sum_opt}");
}
