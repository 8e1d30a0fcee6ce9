//! Experiment implementations regenerating every table and figure of
//! "Optimizing Transactions for Captured Memory" (SPAA 2009).
//!
//! Each `figN`/`tableN` function runs the corresponding experiment on the
//! STAMP-like suite and returns a [`Report`] whose tables mirror the
//! paper's rows/series; the `expt` binary prints them as Markdown and
//! writes them as JSON.

pub mod durability;
pub mod elision;
pub mod gate;
pub mod micro;
pub mod pool;
pub mod report;
pub mod scaling;
pub mod skew;

use std::time::Duration;

use stamp::{Benchmark, RunOutcome, Scale};
use stm::{CheckScope, LogKind, Mode, TxConfig};

pub use report::{Cell, Report, Table};

/// Options shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExptOpts {
    pub scale: Scale,
    /// Thread count for the "16 threads" experiments (the paper's machine
    /// had 24 cores; scale to yours).
    pub threads: usize,
    /// Repetitions for timing experiments.
    pub runs: usize,
}

#[cfg(test)]
impl ExptOpts {
    /// Test scale, one run: the unit tests' options.
    pub(crate) fn test(threads: usize) -> ExptOpts {
        ExptOpts {
            scale: Scale::Test,
            threads,
            runs: 1,
        }
    }
}

impl Default for ExptOpts {
    fn default() -> Self {
        ExptOpts {
            scale: Scale::Small,
            threads: 4,
            runs: 3,
        }
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub(crate) fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn rel_stddev_pct(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 || xs.len() < 2 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    100.0 * var.sqrt() / m
}

/// `runs` repetitions (at least one) of `once`, which returns its wall
/// seconds and an outcome: every run's seconds, and the last run's
/// outcome, which is where the drivers read their counters.
pub(crate) fn repeat<T>(runs: usize, mut once: impl FnMut() -> (f64, T)) -> (Vec<f64>, T) {
    let mut seconds = Vec::with_capacity(runs);
    loop {
        let (s, out) = once();
        seconds.push(s);
        if seconds.len() >= runs {
            return (seconds, out);
        }
    }
}

/// [`repeat`] over verified STAMP runs.
pub(crate) fn stamp_runs(
    b: Benchmark,
    scale: Scale,
    cfg: TxConfig,
    threads: usize,
    runs: usize,
) -> (Vec<f64>, RunOutcome) {
    repeat(runs, || {
        let out = b.run(scale, cfg, threads);
        assert!(
            out.verified,
            "{} failed verification under {}",
            b.name(),
            cfg.label()
        );
        (out.elapsed.as_secs_f64(), out)
    })
}

/// One verified STAMP run's statistics.
fn stats_of(b: Benchmark, scale: Scale, cfg: TxConfig, threads: usize) -> stm::TxStats {
    stamp_runs(b, scale, cfg, threads, 1).1.stats
}

/// Percent improvement of `t` over baseline `base` (paper's metric in
/// Figures 10/11).
fn improvement_pct(base: f64, t: f64) -> f64 {
    100.0 * (base - t) / base
}

/// A table with one row per STAMP benchmark and one column per
/// configuration, `cell` filling each (benchmark, configuration) pair.
fn per_benchmark(
    name: &'static str,
    title: &str,
    configs: &[(&str, TxConfig)],
    mut cell: impl FnMut(Benchmark, TxConfig) -> Cell,
) -> Table {
    let mut t = Table::new(name, title);
    for b in Benchmark::ALL {
        let mut r = vec![("benchmark", b.name().into())];
        r.extend(configs.iter().map(|&(c, cfg)| (c, cell(b, cfg))));
        t.push(r);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 8: breakdown of compiler-inserted barriers at one thread.
// ---------------------------------------------------------------------------

pub fn fig8(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_fig8/v1",
        "Figure 8 — memory access breakdown (1 thread)",
        opts,
    );
    r.intro = "Share of compiler-inserted STM barriers per category (percent).".into();
    let classify = TxConfig {
        classify: true,
        ..TxConfig::default()
    };
    let stats: Vec<stm::TxStats> = Benchmark::ALL
        .iter()
        .map(|&b| stats_of(b, opts.scale, classify, 1))
        .collect();
    type Pick = fn(&stm::TxStats) -> stm::BarrierStats;
    let views: [(&str, &str, Pick); 3] = [
        ("reads", "(a) read breakdown", |s| s.reads),
        ("writes", "(b) write breakdown", |s| s.writes),
        ("all", "(c) all accesses", |s| s.all_accesses()),
    ];
    for (name, title, pick) in views {
        let mut t = Table::new(name, title);
        for (b, st) in Benchmark::ALL.iter().zip(&stats) {
            let s = pick(st);
            let total = s.class_heap + s.class_stack + s.class_other + s.class_required;
            let share = |n| Cell::Float(pct(n, total), 1);
            t.push(vec![
                ("benchmark", b.name().into()),
                ("tx-local heap", share(s.class_heap)),
                ("tx-local stack", share(s.class_stack)),
                ("not required (other)", share(s.class_other)),
                ("required", share(s.class_required)),
            ]);
        }
        r.tables.push(t);
    }
    r
}

// ---------------------------------------------------------------------------
// Figure 9: portion of barriers removed by each technique (1 thread).
// ---------------------------------------------------------------------------

pub fn fig9(opts: &ExptOpts) -> Report {
    let techniques: Vec<(&str, TxConfig)> = vec![
        ("tree", TxConfig::runtime_tree_full()),
        (
            "array",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Array,
                scope: CheckScope::FULL,
            }),
        ),
        (
            "filtering",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Filter,
                scope: CheckScope::FULL,
            }),
        ),
        ("compiler", TxConfig::with_mode(Mode::Compiler)),
    ];
    let mut r = Report::new(
        "bench_fig9/v1",
        "Figure 9 — portion of barriers removed (1 thread, percent)",
        opts,
    );
    let mut writes = Vec::new();
    let reads = per_benchmark("reads", "(a) read barriers", &techniques, |b, cfg| {
        let s = stats_of(b, opts.scale, cfg, 1);
        writes.push(Cell::Float(100.0 * s.writes.elided_fraction(), 1));
        Cell::Float(100.0 * s.reads.elided_fraction(), 1)
    });
    let mut writes = writes.into_iter();
    let writes = per_benchmark("writes", "(b) write barriers", &techniques, |_, _| {
        writes.next().expect("one write cell per read cell")
    });
    r.tables.extend([reads, writes]);
    r
}

/// The configuration columns of Tables 1 and 2.
fn table_configs() -> Vec<(&'static str, TxConfig)> {
    vec![
        ("Baseline", TxConfig::default()),
        ("Tree", TxConfig::runtime_tree_full()),
        (
            "Array",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Array,
                scope: CheckScope::FULL,
            }),
        ),
        (
            "Filtering",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Filter,
                scope: CheckScope::FULL,
            }),
        ),
        ("Compiler", TxConfig::with_mode(Mode::Compiler)),
    ]
}

// ---------------------------------------------------------------------------
// Table 1: abort-to-commit ratio at N threads.
// ---------------------------------------------------------------------------

pub fn table1(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_table1/v1",
        format!(
            "Table 1 — abort-to-commit ratio at {} threads",
            opts.threads
        ),
        opts,
    );
    r.tables
        .push(per_benchmark("rows", "", &table_configs(), |b, cfg| {
            let s = stats_of(b, opts.scale, cfg, opts.threads);
            Cell::Float(s.abort_to_commit_ratio(), 2)
        }));
    r
}

// ---------------------------------------------------------------------------
// Table 2: percent relative standard deviation at N threads.
// ---------------------------------------------------------------------------

pub fn table2(opts: &ExptOpts) -> Report {
    let runs = opts.runs.max(5); // the paper uses 5 repetitions
    let mut r = Report::new(
        "bench_table2/v1",
        format!(
            "Table 2 — percent relative standard deviation at {} threads ({} runs)",
            opts.threads, runs
        ),
        opts,
    );
    r.tables
        .push(per_benchmark("rows", "", &table_configs(), |b, cfg| {
            let (times, _) = stamp_runs(b, opts.scale, cfg, opts.threads, runs);
            Cell::Float(rel_stddev_pct(&times), 1)
        }));
    r
}

// ---------------------------------------------------------------------------
// Figure 10: single-thread performance improvement.
// ---------------------------------------------------------------------------

fn perf_figure(
    schema: &'static str,
    title: String,
    configs: &[(&str, TxConfig)],
    opts: &ExptOpts,
    threads: usize,
) -> Report {
    let mut r = Report::new(schema, title, opts);
    r.intro = "Percent improvement over baseline (positive = faster).".into();
    let time = |b, cfg| median(stamp_runs(b, opts.scale, cfg, threads, opts.runs).0);
    let mut base = (None, 0.0);
    r.tables.push(per_benchmark("rows", "", configs, |b, cfg| {
        if base.0 != Some(b) {
            base = (Some(b), time(b, TxConfig::default()));
        }
        Cell::Float(improvement_pct(base.1, time(b, cfg)), 1)
    }));
    r
}

/// The runtime-configuration series of Figures 10 and 11(a).
fn runtime_configs() -> Vec<(&'static str, TxConfig)> {
    vec![
        ("runtime r+w/stack+heap", TxConfig::runtime_tree_full()),
        (
            "runtime w/stack+heap",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Tree,
                scope: CheckScope::WRITES_STACK_HEAP,
            }),
        ),
        (
            "runtime w/heap",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Tree,
                scope: CheckScope::WRITES_HEAP,
            }),
        ),
        ("compiler", TxConfig::with_mode(Mode::Compiler)),
    ]
}

pub fn fig10(opts: &ExptOpts) -> Report {
    perf_figure(
        "bench_fig10/v1",
        "Figure 10 — performance improvement at 1 thread".into(),
        &runtime_configs(),
        opts,
        1,
    )
}

// ---------------------------------------------------------------------------
// Figure 11(a): runtime configurations & compiler at N threads.
// ---------------------------------------------------------------------------

pub fn fig11a(opts: &ExptOpts) -> Report {
    perf_figure(
        "bench_fig11a/v1",
        format!(
            "Figure 11(a) — performance improvement at {} threads (runtime configurations, tree)",
            opts.threads
        ),
        &runtime_configs(),
        opts,
        opts.threads,
    )
}

// ---------------------------------------------------------------------------
// Figure 11(b): data structures at N threads (write barriers, heap only).
// ---------------------------------------------------------------------------

pub fn fig11b(opts: &ExptOpts) -> Report {
    let configs: Vec<(&str, TxConfig)> = vec![
        (
            "tree",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Tree,
                scope: CheckScope::WRITES_HEAP,
            }),
        ),
        (
            "array",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Array,
                scope: CheckScope::WRITES_HEAP,
            }),
        ),
        (
            "filtering",
            TxConfig::with_mode(Mode::Runtime {
                log: LogKind::Filter,
                scope: CheckScope::WRITES_HEAP,
            }),
        ),
        ("compiler", TxConfig::with_mode(Mode::Compiler)),
    ];
    perf_figure(
        "bench_fig11b/v1",
        format!(
            "Figure 11(b) — performance improvement at {} threads (allocation-log data structures)",
            opts.threads
        ),
        &configs,
        opts,
        opts.threads,
    )
}

// ---------------------------------------------------------------------------
// Extension ablation: the §3.1.3 annotation API (not in the paper's runs).
// ---------------------------------------------------------------------------

pub fn annotations(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_annotations/v1",
        "Ablation — addPrivateMemoryBlock annotations (paper §3.1.3)",
        opts,
    );
    r.intro = "bayes with thread-local query vectors annotated as private.".into();
    let mut t = Table::new("rows", "");
    for (name, annotations) in [("baseline", false), ("annotated", true)] {
        let cfg = TxConfig {
            annotations,
            ..TxConfig::default()
        };
        let (times, out) = stamp_runs(Benchmark::Bayes, opts.scale, cfg, opts.threads, opts.runs);
        t.push(vec![
            ("config", name.into()),
            (
                "barriers elided by annotations",
                out.stats.all_accesses().elided_annotation.into(),
            ),
            ("time (s)", Cell::Float(median(times), 3)),
        ]);
    }
    r.tables.push(t);
    r
}

// ---------------------------------------------------------------------------
// Extension ablation: transaction-record table size vs. false conflicts.
// ---------------------------------------------------------------------------

/// The paper attributes part of vacation's improvement to *fewer false
/// conflicts*: elided barriers never touch the orec table, so collisions in
/// a (too small) table stop mattering. This ablation makes the mechanism
/// directly visible by shrinking the table.
pub fn orec_ablation(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_orec/v1",
        format!(
            "Ablation — orec table size vs. false conflicts (vacation high, {} threads)",
            opts.threads
        ),
        opts,
    );
    r.intro = "Abort-to-commit ratio; smaller tables mean more false conflicts, which barrier elision avoids touching.".into();
    let modes = [
        ("Baseline", Mode::Baseline),
        (
            "Tree",
            Mode::Runtime {
                log: LogKind::Tree,
                scope: CheckScope::FULL,
            },
        ),
        ("Compiler", Mode::Compiler),
    ];
    let mut t = Table::new("rows", "");
    for log2 in [10u32, 14, 20] {
        let mut cells = vec![("orec table size", format!("2^{log2}").into())];
        for (name, mode) in modes {
            let mut cfg = TxConfig::with_mode(mode);
            cfg.orec_log2 = log2;
            let s = stats_of(Benchmark::VacationHigh, opts.scale, cfg, opts.threads);
            cells.push((name, Cell::Float(s.abort_to_commit_ratio(), 2)));
        }
        t.push(cells);
    }
    r.tables.push(t);
    r
}

/// Quick smoke run of every benchmark under the baseline (`expt check`):
/// every run is verified, and the counters show the ranged barriers and
/// the contention ladder at work.
pub fn check(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_check/v1",
        format!(
            "Check — every benchmark, baseline, {} threads",
            opts.threads
        ),
        opts,
    );
    let mut t = Table::new("rows", "");
    for b in Benchmark::ALL {
        let (seconds, out) = stamp_runs(b, opts.scale, TxConfig::default(), opts.threads, 1);
        let s = out.stats;
        t.push(vec![
            ("benchmark", b.name().into()),
            ("commits", s.commits.into()),
            ("aborts", s.aborts.into()),
            ("seconds", Cell::Float(seconds[0], 3)),
            ("ranged_reads", s.ranged_reads.into()),
            ("ranged_writes", s.ranged_writes.into()),
            ("ranged_spans", s.ranged_spans.into()),
            ("ranged_fallbacks", s.ranged_fallbacks.into()),
            ("backoff_waits", s.backoff_waits.into()),
            ("cm_karma_escalations", s.cm_karma_escalations.into()),
            ("cm_serializations", s.cm_serializations.into()),
            ("attempts_max", s.attempts_max.into()),
        ]);
    }
    r.tables.push(t);
    r
}

/// Pretty Duration for logs.
pub fn fmt_dur(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(rel_stddev_pct(&[5.0, 5.0, 5.0]), 0.0);
        assert!(rel_stddev_pct(&[1.0, 3.0]) > 0.0);
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
        assert!((improvement_pct(2.0, 1.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn check_runs_all_benchmarks() {
        assert_eq!(check(&ExptOpts::test(2)).tables[0].rows.len(), 10);
    }
}
