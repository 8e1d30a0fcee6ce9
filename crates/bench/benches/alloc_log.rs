//! Microbenchmarks of the three allocation-log data structures (paper
//! §3.1.2) plus the nursery bump-region classifier: insert cost, hit
//! cost, and — crucial for barriers that gain nothing — miss cost, as a
//! function of how many blocks the transaction has allocated.

use capture::{LogImpl, LogKind, NurseryLog};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_alloc_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_log");
    g.sample_size(30);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(700));

    for kind in LogKind::ALL {
        for &n in &[1usize, 4, 16, 64] {
            // Insert + clear cycle (what a transaction with n allocations
            // pays in logging).
            g.bench_with_input(
                BenchmarkId::new(format!("insert_{}", kind.name()), n),
                &n,
                |b, &n| {
                    let mut log = LogImpl::new(kind);
                    b.iter(|| {
                        for i in 0..n as u64 {
                            log.insert(0x10000 + i * 256, 64, 1);
                        }
                        log.clear();
                    })
                },
            );

            // Query hit on a populated log.
            g.bench_with_input(
                BenchmarkId::new(format!("hit_{}", kind.name()), n),
                &n,
                |b, &n| {
                    let mut log = LogImpl::new(kind);
                    for i in 0..n as u64 {
                        log.insert(0x10000 + i * 256, 64, 1);
                    }
                    let probe = 0x10000 + (n as u64 / 2) * 256 + 32;
                    b.iter(|| log.query(probe))
                },
            );

            // Query miss (the cost added to every non-elidable barrier).
            g.bench_with_input(
                BenchmarkId::new(format!("miss_{}", kind.name()), n),
                &n,
                |b, &n| {
                    let mut log = LogImpl::new(kind);
                    for i in 0..n as u64 {
                        log.insert(0x10000 + i * 256, 64, 1);
                    }
                    b.iter(|| log.query(0xdead_0000))
                },
            );
        }
    }
    // The nursery rows: unlike the logs above, "insert" is a bump (no
    // per-word marking, no tree rebalance) and classification is the
    // two-compare scalar range test — block count cannot affect either.
    for &n in &[1usize, 4, 16, 64] {
        g.bench_with_input(BenchmarkId::new("insert_nursery", n), &n, |b, &n| {
            let mut nur = NurseryLog::new();
            b.iter(|| {
                nur.abort();
                nur.switch_region(0x10000, 1 << 20);
                for _ in 0..n {
                    std::hint::black_box(nur.try_alloc(64));
                }
            })
        });

        g.bench_with_input(BenchmarkId::new("hit_nursery", n), &n, |b, &n| {
            let mut nur = NurseryLog::new();
            nur.switch_region(0x10000, 1 << 20);
            for _ in 0..n {
                nur.try_alloc(64);
            }
            let probe = 0x10000 + (n as u64 / 2) * 64 + 32;
            b.iter(|| nur.classify(probe))
        });

        g.bench_with_input(BenchmarkId::new("miss_nursery", n), &n, |b, &n| {
            let mut nur = NurseryLog::new();
            nur.switch_region(0x10000, 1 << 20);
            for _ in 0..n {
                nur.try_alloc(64);
            }
            b.iter(|| nur.classify(0xdead_0000))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_alloc_log);
criterion_main!(benches);
