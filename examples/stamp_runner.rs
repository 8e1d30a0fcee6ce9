//! Run any STAMP benchmark from the command line, like the original
//! suite's binaries:
//!
//! ```sh
//! cargo run --release --example stamp_runner -- vacation-high 4 tree
//! cargo run --release --example stamp_runner -- yada 2 baseline
//! cargo run --release --example stamp_runner -- all 4 compiler
//! ```
//!
//! Arguments: `<benchmark|all> [threads]
//! [baseline|tree|array|filter|nursery|compiler|compiler-interproc]`
//! (`nursery` = runtime-tree with per-transaction nursery allocation).

use stamp::{Benchmark, Scale};
use stm::{CheckScope, LogKind, Mode, TxConfig};

fn parse_benchmark(s: &str) -> Option<Benchmark> {
    Some(match s {
        "bayes" => Benchmark::Bayes,
        "genome" => Benchmark::Genome,
        "intruder" => Benchmark::Intruder,
        "kmeans-high" => Benchmark::KmeansHigh,
        "kmeans-low" => Benchmark::KmeansLow,
        "labyrinth" => Benchmark::Labyrinth,
        "ssca2" => Benchmark::Ssca2,
        "vacation-high" => Benchmark::VacationHigh,
        "vacation-low" => Benchmark::VacationLow,
        "yada" => Benchmark::Yada,
        _ => return None,
    })
}

fn parse_mode(s: &str) -> Option<TxConfig> {
    let runtime = |log| {
        TxConfig::with_mode(Mode::Runtime {
            log,
            scope: CheckScope::FULL,
        })
    };
    Some(match s {
        "baseline" => TxConfig::with_mode(Mode::Baseline),
        "compiler" => TxConfig::with_mode(Mode::Compiler),
        "compiler-interproc" => TxConfig::with_mode(Mode::CompilerInterproc),
        "tree" => TxConfig::runtime_tree_full(),
        "nursery" => TxConfig::runtime_tree_nursery(),
        "array" => runtime(LogKind::Array),
        "filter" => runtime(LogKind::Filter),
        _ => return None,
    })
}

fn run_one(b: Benchmark, threads: usize, cfg: TxConfig) {
    let out = b.run(Scale::Full, cfg, threads);
    let all = out.stats.all_accesses();
    println!(
        "{:<14} {:>8.3}s  {:>9} commits  {:>8} aborts (ratio {:.2})  \
         barriers {:>9} ({:>5.1}% elided)  verified={}",
        out.benchmark,
        out.elapsed.as_secs_f64(),
        out.stats.commits,
        out.stats.aborts,
        out.stats.abort_to_commit_ratio(),
        all.total,
        100.0 * all.elided_fraction(),
        out.verified,
    );
    assert!(out.verified, "{} failed verification!", b.name());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let threads: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let cfg = args
        .get(2)
        .map(|s| {
            parse_mode(s)
                .expect("mode: baseline|tree|array|filter|nursery|compiler|compiler-interproc")
        })
        .unwrap_or_else(TxConfig::runtime_tree_full);

    println!("# scale=full threads={threads} mode={}", cfg.label());
    if which == "all" {
        for b in Benchmark::ALL {
            run_one(b, threads, cfg);
        }
    } else {
        let b = parse_benchmark(which).unwrap_or_else(|| {
            eprintln!(
                "unknown benchmark {which}; one of: bayes genome intruder kmeans-high \
                 kmeans-low labyrinth ssca2 vacation-high vacation-low yada all"
            );
            std::process::exit(2);
        });
        run_one(b, threads, cfg);
    }
}
