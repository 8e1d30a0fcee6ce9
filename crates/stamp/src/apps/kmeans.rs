//! `kmeans` — iterative clustering (STAMP `kmeans`).
//!
//! Threads partition the points; the nearest-center computation reads
//! thread-partitioned points and the previous iteration's centers (data the
//! original STAMP accesses *without* barriers — a naive compiler still
//! instruments those reads, giving Figure 8's big "not required for other
//! reasons" share). The transaction wraps only the accumulator update:
//! `count += 1; sum[d] += coord[d]` on the chosen cluster — all genuinely
//! shared accesses, which is why the paper finds essentially **no** barrier
//! elision opportunity here and why the runtime checks can only add
//! overhead (Figure 10's kmeans slowdown).
//!
//! High contention = few clusters (every update hits the same records);
//! low contention = more clusters.

use stm::{Site, StmRuntime, TxConfig};
use txmem::MemConfig;

use crate::rng::SplitMix64;

use super::{chunk, run_parallel, RunOutcome, Scale};

static S_POINT_R: Site = Site::unneeded("kmeans.point.read");
static S_CENTER_R: Site = Site::unneeded("kmeans.center.read");
static S_ACC_R: Site = Site::shared("kmeans.accumulator.read");
static S_ACC_W: Site = Site::shared("kmeans.accumulator.write");

#[derive(Clone, Debug)]
pub struct Config {
    pub points: u64,
    pub dims: u64,
    pub clusters: u64,
    pub iterations: u64,
    pub seed: u64,
    pub high_contention: bool,
}

impl Config {
    pub fn scaled(scale: Scale, high_contention: bool) -> Config {
        let points = match scale {
            Scale::Test => 512,
            Scale::Small => 1 << 13,
            Scale::Full => 1 << 16,
        };
        Config {
            points,
            dims: 4,
            // STAMP kmeans high uses fewer clusters (-c 15 vs -c 40 in the
            // low-contention run); scaled down proportionally.
            clusters: if high_contention { 4 } else { 16 },
            iterations: 3,
            seed: 0x6bea,
            high_contention,
        }
    }
}

pub fn run(cfg: &Config, txcfg: TxConfig, threads: usize) -> RunOutcome {
    let name = if cfg.high_contention {
        "kmeans high"
    } else {
        "kmeans low"
    };
    let d = cfg.dims;
    let mem = MemConfig {
        max_threads: threads.max(1) + 2,
        stack_words: 1 << 12,
        heap_words: (cfg.points * d + cfg.clusters * (2 * d + 2) + (1 << 16)) as usize,
    };
    let rt = StmRuntime::new(mem, txcfg);

    // points[i][d], centers[c][d], accumulators[c] = [count, sum_0..sum_d-1]
    let points = rt.alloc_global(cfg.points * d * 8);
    let centers = rt.alloc_global(cfg.clusters * d * 8);
    let accums = rt.alloc_global(cfg.clusters * (d + 1) * 8);
    {
        let w = rt.spawn_worker();
        let mut rng = SplitMix64::new(cfg.seed);
        for i in 0..cfg.points * d {
            w.store_as(points.word(i), rng.next_f64() * 100.0);
        }
        // Initial centers: first k points (standard Forgy-ish seeding).
        for c in 0..cfg.clusters {
            for j in 0..d {
                let v = w.load_as::<f64>(points.word(c * d + j));
                w.store_as(centers.word(c * d + j), v);
            }
        }
        for i in 0..cfg.clusters * (d + 1) {
            w.store(accums.word(i), 0);
        }
    }
    rt.reset_stats();

    let mut total_elapsed = std::time::Duration::ZERO;
    for _iter in 0..cfg.iterations {
        let elapsed = run_parallel(&rt, threads, |w, t| {
            let (lo, hi) = chunk(cfg.points, threads, t);
            let d_us = d as usize;
            let mut pbuf = vec![0u64; d_us];
            let mut cbuf = vec![0u64; d_us];
            let mut sbuf = vec![0u64; d_us];
            for i in lo..hi {
                let c = w.txn(|tx| {
                    // Nearest-center search: reads the paper classifies as
                    // "not required" (thread-partitioned / stable data).
                    // Row-wise ranged reads — one classification per
                    // `dims`-word row instead of one per coordinate.
                    tx.read_range(&S_POINT_R, points.word(i * d), &mut pbuf)?;
                    let mut best = 0u64;
                    let mut best_dist = f64::INFINITY;
                    for c in 0..cfg.clusters {
                        tx.read_range(&S_CENTER_R, centers.word(c * d), &mut cbuf)?;
                        let mut dist = 0.0;
                        for j in 0..d_us {
                            let p = f64::from_bits(pbuf[j]);
                            let q = f64::from_bits(cbuf[j]);
                            dist += (p - q) * (p - q);
                        }
                        if dist < best_dist {
                            best_dist = dist;
                            best = c;
                        }
                    }
                    // The genuinely shared update (STAMP's atomic block):
                    // read the sum row, add the point, write it back.
                    let acc = accums.word(best * (d + 1));
                    let count = tx.read(&S_ACC_R, acc)?;
                    tx.write(&S_ACC_W, acc, count + 1)?;
                    let sums = accums.word(best * (d + 1) + 1);
                    tx.read_range(&S_ACC_R, sums, &mut sbuf)?;
                    for j in 0..d_us {
                        let s = f64::from_bits(sbuf[j]);
                        let p = f64::from_bits(pbuf[j]);
                        sbuf[j] = (s + p).to_bits();
                    }
                    tx.write_range(&S_ACC_W, sums, &sbuf)?;
                    Ok(best)
                });
                let _ = c;
            }
        });
        total_elapsed += elapsed;
        // Sequential reduction between iterations (STAMP does the same on
        // the master thread): new centers = sum / count, reset accumulators.
        let w = rt.spawn_worker();
        for c in 0..cfg.clusters {
            let count = w.load(accums.word(c * (d + 1)));
            if count > 0 {
                for j in 0..d {
                    let s = w.load_as::<f64>(accums.word(c * (d + 1) + 1 + j));
                    w.store_as(centers.word(c * d + j), s / count as f64);
                }
            }
            for j in 0..=d {
                w.store(accums.word(c * (d + 1) + j), 0);
            }
        }
    }

    let stats = rt.collect_stats();
    // Verification: every point was assigned exactly once per iteration
    // (commit count) and the centers are finite.
    let w = rt.spawn_worker();
    let mut verified = stats.commits == cfg.points * cfg.iterations;
    for c in 0..cfg.clusters * d {
        if !w.load_as::<f64>(centers.word(c)).is_finite() {
            verified = false;
        }
    }
    RunOutcome {
        benchmark: name,
        threads,
        elapsed: total_elapsed,
        stats,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_verifies() {
        let cfg = Config::scaled(Scale::Test, true);
        let out = run(&cfg, TxConfig::default(), 2);
        assert!(out.verified);
        assert_eq!(out.stats.commits, cfg.points * cfg.iterations);
    }

    #[test]
    fn no_elision_opportunity() {
        // The paper's key observation for kmeans: runtime capture analysis
        // finds (almost) nothing to elide.
        let cfg = Config::scaled(Scale::Test, true);
        let out = run(&cfg, TxConfig::runtime_tree_full(), 1);
        assert!(out.verified);
        let all = out.stats.all_accesses();
        assert_eq!(all.elided(), 0, "kmeans has no captured accesses");
        assert!(all.total > 0);
    }

    #[test]
    fn deterministic_assignment_counts_across_modes() {
        let cfg = Config::scaled(Scale::Test, false);
        let a = run(&cfg, TxConfig::default(), 1);
        let b = run(&cfg, TxConfig::runtime_tree_full(), 1);
        assert_eq!(a.stats.commits, b.stats.commits);
    }
}
