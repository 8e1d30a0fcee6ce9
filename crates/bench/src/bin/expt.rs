//! Experiment driver: regenerates every table and figure of the paper,
//! the barrier microbenchmark and the post-paper experiments. Each
//! subcommand prints its report as Markdown and, with `--out FILE`,
//! writes the same report as JSON (`bench-json` always writes, by default
//! to `BENCH_barriers.json`).
//!
//! Run it without arguments for the subcommands and the flags each one
//! reads ([`FLAGS`]); a flag its subcommand does not read is a usage
//! error. A gate flag ([`GATES`]) bounds one cell of the report and exits
//! 1 when the cell misses the bound. `elision` gates itself: it panics on
//! any superset, ordering or soundness violation.

use bench::gate::{skip_reason, verdict, Bound, Gate, GATES};
use bench::micro::MicroOpts;
use bench::{Cell, ExptOpts, Report, Table};
use bench_support as bench;
use stamp::{Benchmark, Scale};
use stm::TxObject;

type Paper = fn(&ExptOpts) -> Report;

/// The paper's figures and tables, and the ablations beside them.
const PAPER: [(&str, Paper); 9] = [
    ("fig8", bench::fig8),
    ("fig9", bench::fig9),
    ("fig10", bench::fig10),
    ("fig11a", bench::fig11a),
    ("fig11b", bench::fig11b),
    ("table1", bench::table1),
    ("table2", bench::table2),
    ("annotations", bench::annotations),
    ("orec", bench::orec_ablation),
];

/// The other subcommands; all but `all` produce one report.
const OTHERS: [&str; 9] = [
    "barriers",
    "bench-json",
    "scaling",
    "merge",
    "elision",
    "durability",
    "pool",
    "check",
    "all",
];

/// Which subcommands read a flag.
#[derive(Clone, Copy)]
enum Readers {
    All,
    /// Every subcommand that produces one report (all but `all`).
    Reports,
    Only(&'static [&'static str]),
    /// The subcommand of the flag's [`GATES`] row.
    Gated,
}

use Readers::{All, Gated, Only, Reports};

/// Every flag: its name, its value's placeholder (empty for a switch),
/// and who reads it.
const FLAGS: [(&str, &str, Readers); 19] = [
    ("--scale", "test|small|full", All),
    ("--threads", "N", All),
    ("--runs", "K", All),
    ("--out", "FILE", Reports),
    ("--benchmarks", "a,b", Only(&["bench-json"])),
    ("--merge", "N", Only(&["merge", "pool"])),
    ("--ops", "N", Only(&["pool"])),
    ("--budget", "BYTES", Only(&["pool"])),
    ("--theta", "F", Only(&["pool"])),
    ("--seed", "N", Only(&["pool"])),
    ("--durable", "", Only(&["pool"])),
    ("--max-ratio", "F", Gated),
    ("--max-typed-ratio", "F", Gated),
    ("--max-ranged-ratio", "F", Gated),
    ("--max-nursery-ratio", "F", Gated),
    ("--min-speedup", "F", Gated),
    ("--min-merge-speedup", "F", Gated),
    ("--max-durability-tax", "F", Gated),
    ("--min-pool-throughput", "F", Gated),
];

const DIRECT: &str = "direct (load+store, no barrier)";

/// The ratios tracked over the `barrier_dispatch` table: (name, numerator
/// path, denominator path).
const RATIOS: [(&str, &str, &str); 5] = [
    // The dispatch refactor's headline: the monomorphized captured-heap
    // hit over the uninstrumented floor.
    (
        "captured_tree_vs_direct_ratio",
        "captured heap hit/tree",
        DIRECT,
    ),
    // The nursery's scalar range test over the same floor.
    (
        "captured_nursery_vs_direct_ratio",
        "captured heap hit/nursery",
        DIRECT,
    ),
    // The typed layer's zero-cost contract: the same workload through
    // `alloc_buf`/`write_elem`/`read_elem` over the raw word API.
    (
        "captured_typed_vs_raw_ratio",
        "captured heap hit/tree (typed)",
        "captured heap hit/tree",
    ),
    // Per-word cost of a 64-word captured span over the per-word hit.
    (
        "ranged_span64_vs_per_word_ratio",
        "ranged captured span 64/tree",
        "captured heap hit/tree",
    ),
    // How many full barriers one begin + commit costs.
    (
        "txn_empty_vs_full_barrier_ratio",
        "txn_empty",
        "full barrier (shared)",
    ),
];

impl Readers {
    fn read_by(self, flag: &str, cmd: &str) -> bool {
        match self {
            All => true,
            Reports => cmd != "all",
            Only(cmds) => cmds.contains(&cmd),
            Gated => GATES.iter().any(|g| g.flag == flag && g.cmd == cmd),
        }
    }

    fn describe(self, flag: &str) -> String {
        match self {
            All => "every subcommand".into(),
            Reports => "every subcommand but all".into(),
            Only(cmds) => cmds.join(", "),
            Gated => {
                let g = GATES.iter().find(|g| g.flag == flag).expect("gate row");
                let op = if g.bound == Bound::Max { "<=" } else { ">=" };
                format!("{} (gate: {} {op} F)", g.cmd, g.column)
            }
        }
    }
}

/// A parsed command line.
struct Cli {
    cmd: String,
    opts: ExptOpts,
    out: Option<String>,
    benchmarks: Option<Vec<Benchmark>>,
    merge: Option<usize>,
    pool: bench::pool::PoolOpts,
    /// The gate flags given, with their bounds.
    bounds: Vec<(&'static Gate, f64)>,
}

/// The last value of `flag` on the command line, parsed.
fn value<T: std::str::FromStr>(set: &[(&str, &str)], flag: &str) -> Result<Option<T>, String> {
    match set.iter().rev().find(|f| f.0 == flag) {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse {v:?}")),
    }
}

/// Parse and validate a command line (without the program name). Every
/// `Err` is a usage error.
fn parse(args: &[String]) -> Result<Cli, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    if !PAPER.iter().any(|p| p.0 == cmd) && !OTHERS.contains(&cmd.as_str()) {
        return Err(format!("unknown subcommand {cmd:?}"));
    }
    let mut set: Vec<(&str, &str)> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let &(flag, arg, readers) = FLAGS
            .iter()
            .find(|f| f.0 == a)
            .ok_or_else(|| format!("unknown flag {a:?}"))?;
        if !readers.read_by(flag, cmd) {
            return Err(format!("{cmd} does not read {flag}"));
        }
        let v = match arg {
            "" => "",
            _ => it
                .next()
                .ok_or_else(|| format!("{flag} needs a value ({arg})"))?,
        };
        set.push((flag, v));
    }

    let mut opts = ExptOpts::default();
    if let Some(name) = value::<String>(&set, "--scale")? {
        opts.scale = [Scale::Test, Scale::Small, Scale::Full]
            .into_iter()
            .find(|&s| bench::report::scale_name(s) == name)
            .ok_or_else(|| format!("--scale: unknown scale {name:?}"))?;
    }
    opts.threads = value(&set, "--threads")?.unwrap_or(opts.threads);
    opts.runs = value(&set, "--runs")?.unwrap_or(opts.runs);
    // Zero threads divides work by zero, zero runs has no median, and
    // absurd thread counts would balloon every benchmark's simulated
    // address space (one stack region per thread).
    if opts.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if opts.threads > stamp::MAX_THREADS {
        return Err(format!(
            "--threads {} exceeds the supported maximum of {} worker stack regions",
            opts.threads,
            stamp::MAX_THREADS
        ));
    }
    if opts.runs == 0 {
        return Err("--runs must be at least 1 (timings report the median run)".into());
    }
    let benchmarks = match value::<String>(&set, "--benchmarks")? {
        Some(spec) => Some(bench::report::parse_benchmark_filter(&spec)?),
        None => None,
    };
    // Factors the runtime's own config validation would reject fail here,
    // not deep in a driver.
    let merge: Option<usize> = value(&set, "--merge")?;
    match merge {
        Some(0) => return Err("--merge must be at least 1 (1 = unmerged baseline)".into()),
        Some(n) if n > stm::MERGE_MAX_LIMIT as usize => {
            return Err(format!(
                "--merge {n} exceeds the supported maximum merge_max of {}",
                stm::MERGE_MAX_LIMIT
            ))
        }
        _ => {}
    }

    // Pool-flag validation mirrors the library's PoolConfig::validate.
    let mut pool = bench::pool::PoolOpts::default();
    if let Some(n) = value(&set, "--ops")? {
        if n == 0 {
            return Err("--ops must be at least 1 (omit it for the scale default)".into());
        }
        pool.ops = n;
    }
    if let Some(b) = value(&set, "--budget")? {
        if b < pool::Item::BYTES {
            return Err(format!(
                "--budget {b} cannot hold a single pool item ({} bytes minimum)",
                pool::Item::BYTES
            ));
        }
        pool.budget = b;
    }
    if let Some(t) = value::<f64>(&set, "--theta")? {
        if !t.is_finite() || !(0.0..=4.0).contains(&t) {
            return Err("--theta must be a finite zipf exponent in 0.0..=4.0".into());
        }
        pool.theta = t;
    }
    pool.seed = value(&set, "--seed")?.unwrap_or(pool.seed);
    pool.merge = merge.unwrap_or(pool.merge);
    pool.durable = set.iter().any(|f| f.0 == "--durable");

    let mut bounds = Vec::new();
    for g in &GATES {
        if let Some(bound) = value(&set, g.flag)? {
            bounds.push((g, bound));
        }
    }
    Ok(Cli {
        cmd: cmd.clone(),
        opts,
        out: value(&set, "--out")?,
        benchmarks,
        merge,
        pool,
        bounds,
    })
}

fn usage(err: &str) -> ! {
    eprintln!("expt: {err}");
    let paper: Vec<&str> = PAPER.iter().map(|p| p.0).collect();
    eprintln!(
        "usage: expt <{}|{}> [flags]",
        paper.join("|"),
        OTHERS.join("|")
    );
    for (flag, arg, readers) in FLAGS {
        eprintln!(
            "  {:<28} {}",
            format!("{flag} {arg}"),
            readers.describe(flag)
        );
    }
    std::process::exit(2);
}

/// `r` with the [`RATIOS`] table after its `barrier_dispatch` table.
fn ratios(mut r: Report) -> Report {
    let d = r.table("barrier_dispatch").expect("a dispatch table");
    let ns = |path| d.value(&[("path", path)], "ns_per_access");
    let mut t = Table::new("ratios", "Tracked ratios");
    for (name, num, den) in RATIOS {
        let ratio = ns(num).zip(ns(den)).map_or(f64::NAN, |(n, d)| n / d);
        t.push(vec![
            ("name", name.into()),
            ("numerator", num.into()),
            ("denominator", den.into()),
            ("ratio", Cell::Float(ratio, 3)),
        ]);
    }
    r.tables.insert(1, t);
    r
}

/// The report of a report-producing subcommand.
fn report(cli: &Cli) -> Report {
    let opts = &cli.opts;
    if let Some((_, paper)) = PAPER.iter().find(|p| p.0 == cli.cmd) {
        return paper(opts);
    }
    let micro = MicroOpts::default();
    match cli.cmd.as_str() {
        "barriers" => ratios(bench::micro::report(opts, &micro)),
        "bench-json" => ratios(bench::report::bench_report(
            opts,
            &micro,
            cli.benchmarks.as_deref(),
        )),
        "scaling" => bench::scaling::report(opts),
        // --merge N narrows the factor axis to {1, N} (factor 1 stays: it
        // seeds the speedup baseline); the default is the full sweep.
        "merge" => match cli.merge {
            Some(n) if n > 1 => bench::merge::report(opts, &[1, n]),
            _ => bench::merge::report(opts, &bench::merge::FACTORS),
        },
        "durability" => bench::durability::report(opts),
        "pool" => bench::pool::report(opts, &cli.pool),
        "elision" => bench::elision::report(opts),
        "check" => bench::check(opts),
        other => unreachable!("{other} has no report"),
    }
}

/// Judge every gate flag given; false when any failed.
fn gates_pass(cli: &Cli, r: &Report) -> bool {
    let mut pass = true;
    for &(g, bound) in &cli.bounds {
        if let Some(why) = skip_reason(g) {
            eprintln!("# {} gate skipped: {why}", g.flag);
            continue;
        }
        match verdict(g, bound, r, cli.merge) {
            Ok(v) => eprintln!("# {} {} {v:.2} holds {bound:.2}", g.flag, g.column),
            Err(msg) => {
                eprintln!("# FAIL: {msg}");
                pass = false;
            }
        }
    }
    pass
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| usage(&e));
    let opts = &cli.opts;
    eprintln!(
        "# expt {} (scale {:?}, {} threads, {} runs)",
        cli.cmd, opts.scale, opts.threads, opts.runs
    );
    let t0 = std::time::Instant::now();
    match cli.cmd.as_str() {
        "all" => {
            for (_, paper) in PAPER {
                print!("{}", paper(opts).markdown());
            }
        }
        cmd => {
            let r = report(&cli);
            print!("{}", r.markdown());
            let default = (cmd == "bench-json").then_some("BENCH_barriers.json");
            if let Some(path) = cli.out.as_deref().or(default) {
                std::fs::write(path, r.json())
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("# wrote {path}");
            }
            if !gates_pass(&cli, &r) {
                std::process::exit(1);
            }
        }
    }
    eprintln!("# done in {}", bench::fmt_dur(t0.elapsed()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn each_gate_flag_parses_only_on_its_subcommand() {
        for g in &GATES {
            let cli = parse_str(&format!("{} {} 1.5", g.cmd, g.flag)).unwrap();
            assert_eq!(cli.bounds.len(), 1);
            assert_eq!((cli.bounds[0].0.flag, cli.bounds[0].1), (g.flag, 1.5));
            let other = if g.cmd == "pool" { "barriers" } else { "pool" };
            let err = parse_str(&format!("{other} {} 1.5", g.flag)).err().unwrap();
            assert_eq!(err, format!("{other} does not read {}", g.flag));
        }
        // Gate flags of other subcommands, which `barriers` does not judge.
        let repro = "barriers --min-pool-throughput 1e12 --max-durability-tax 0.0001";
        assert!(parse_str(repro).is_err());
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_errors() {
        assert_eq!(
            parse_str("fig8 --nope").err().unwrap(),
            "unknown flag \"--nope\""
        );
        assert_eq!(
            parse_str("barriers --max-ratio").err().unwrap(),
            "--max-ratio needs a value (F)"
        );
        assert!(parse_str("barriers --max-ratio x").is_err());
        assert!(parse_str("nope").is_err() && parse_str("").is_err());
        assert!(parse_str("fig8 --scale huge").is_err());
        assert!(parse_str("merge --merge 0").is_err());
        assert!(parse_str("pool --ops 0").is_err());
        assert!(parse_str("all --out x.json").is_err());
        let cli = parse_str("pool --scale test --durable --merge 4 --seed 9").unwrap();
        assert_eq!(
            (cli.pool.merge, cli.pool.seed, cli.pool.durable),
            (4, 9, true)
        );
        assert_eq!(cli.opts.scale, Scale::Test);
    }

    /// Every `cargo run ... --bin expt -- ...` invocation in `text`, with
    /// YAML `>` folded blocks joined into one line.
    fn expt_invocations(text: &str) -> Vec<String> {
        let lines: Vec<&str> = text.lines().collect();
        let indent = |l: &str| l.len() - l.trim_start().len();
        let mut found = Vec::new();
        let mut i = 0;
        while i < lines.len() {
            let mut line = lines[i].trim().to_string();
            if line.ends_with("run: >") {
                let base = indent(lines[i]);
                while i + 1 < lines.len()
                    && !lines[i + 1].trim().is_empty()
                    && indent(lines[i + 1]) > base
                {
                    i += 1;
                    line.push(' ');
                    line.push_str(lines[i].trim());
                }
            }
            if let Some((_, args)) = line.split_once("--bin expt --") {
                found.push(args.trim().to_string());
            }
            i += 1;
        }
        found
    }

    #[test]
    fn ci_expt_invocations_parse() {
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let calls = expt_invocations(ci);
        assert_eq!(calls.len(), 8, "{calls:#?}");
        let mut gated = 0;
        for call in &calls {
            let cli = parse_str(call).unwrap_or_else(|e| panic!("ci.yml `expt {call}`: {e}"));
            gated += cli.bounds.len();
        }
        assert_eq!(gated, 7, "CI's gate flags");
    }

    #[test]
    fn ratios_cover_the_measured_paths() {
        let r = ratios(bench::micro::report(
            &ExptOpts::default(),
            &MicroOpts::smoke(),
        ));
        let t = r.table("ratios").unwrap();
        assert_eq!(t.rows.len(), RATIOS.len());
        for (name, _, _) in RATIOS {
            let v = t.value(&[("name", name)], "ratio").unwrap();
            assert!(v.is_finite() && v > 0.0, "{name}: {v}");
        }
    }
}
