//! The one output path of every experiment: a [`Report`] of named
//! [`Table`]s, rendered as Markdown for the terminal and as JSON for the
//! committed `BENCH_*.json` snapshots. The JSON is written by hand (no
//! serde in the offline container): one header, flat rows, numbers and
//! strings only.
//!
//! Also the `bench-json` driver (`BENCH_barriers.json`): the
//! `barrier_dispatch` microbenchmark plus one STAMP run per tracked
//! barrier mode, so future PRs have a perf trajectory to diff against.

use std::fmt;

use stamp::{Benchmark, Scale};
use stm::{CheckScope, LogKind, Mode, TxConfig};

use crate::micro::MicroOpts;
use crate::ExptOpts;

/// One table cell: a string, a count, or a float printed with a fixed
/// number of decimals (a non-finite float is JSON `null`).
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    Str(String),
    Int(u64),
    Float(f64, usize),
}

impl Cell {
    /// The numeric value, for gates and ratios.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Str(_) => None,
            Cell::Int(n) => Some(n as f64),
            Cell::Float(v, _) => Some(v),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Str(s) => format!("\"{}\"", esc(s)),
            Cell::Float(v, _) if !v.is_finite() => "null".into(),
            _ => self.to_string(),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Str(s) => f.write_str(s),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Float(v, d) => write!(f, "{v:.*}", *d),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.into())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

/// A named table: `name` is its JSON key, `title` its Markdown heading
/// (none when empty). Rows are pushed as (column, cell) pairs: the first
/// row names the columns and every later row repeats them.
#[derive(Clone, Debug)]
pub struct Table {
    pub name: &'static str,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(name: &'static str, title: impl Into<String>) -> Table {
        Table {
            name,
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Vec<(&str, Cell)>) {
        if self.rows.is_empty() {
            self.columns = row.iter().map(|c| c.0.to_string()).collect();
        }
        assert!(
            row.iter()
                .map(|c| c.0)
                .eq(self.columns.iter().map(String::as_str)),
            "{}: a row with other columns",
            self.name
        );
        self.rows.push(row.into_iter().map(|c| c.1).collect());
    }

    fn col(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }

    /// The first row whose cells print as the selector's values.
    fn find(&self, sel: &[(&str, &str)]) -> Option<&[Cell]> {
        let idx: Vec<(usize, &str)> = sel
            .iter()
            .map(|&(c, v)| Some((self.col(c)?, v)))
            .collect::<Option<_>>()?;
        self.rows
            .iter()
            .find(|r| idx.iter().all(|&(i, v)| r[i].to_string() == v))
            .map(Vec::as_slice)
    }

    /// `column` of the first row whose cells print as `sel`, as a number.
    pub fn value(&self, sel: &[(&str, &str)], column: &str) -> Option<f64> {
        self.find(sel)?[self.col(column)?].value()
    }

    /// Spread `value` across the distinct values of `across`, one row per
    /// run of equal `keys` cells (rows must come key-major, as every driver
    /// emits them): the terminal's pivot view of a long table.
    pub fn pivot(&self, name: &'static str, keys: &[&str], across: &str, value: &str) -> Table {
        let col = |c: &str| {
            self.col(c)
                .unwrap_or_else(|| panic!("{}: no column {c}", self.name))
        };
        let keys: Vec<usize> = keys.iter().map(|c| col(c)).collect();
        let (a, v) = (col(across), col(value));
        let mut heads: Vec<String> = Vec::new();
        for r in &self.rows {
            let h = format!("{across}={}", r[a]);
            if !heads.contains(&h) {
                heads.push(h);
            }
        }
        let mut out = Table {
            name,
            title: format!("{value} by {across}"),
            columns: keys.iter().map(|&k| self.columns[k].clone()).collect(),
            rows: Vec::new(),
        };
        out.columns.extend(heads);
        for r in &self.rows {
            let key: Vec<Cell> = keys.iter().map(|&k| r[k].clone()).collect();
            match out.rows.last_mut() {
                Some(last) if last[..keys.len()] == key[..] => last.push(r[v].clone()),
                _ => out
                    .rows
                    .push(key.into_iter().chain([r[v].clone()]).collect()),
            }
        }
        for r in &out.rows {
            assert_eq!(r.len(), out.columns.len(), "{name}: incomplete pivot");
        }
        out
    }

    fn markdown(&self, out: &mut String) {
        if self.rows.is_empty() {
            return;
        }
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n|", self.columns.join(" | ")));
        for i in 0..self.columns.len() {
            // Text columns align left, numbers right.
            let text = matches!(self.rows[0][i], Cell::Str(_));
            out.push_str(if text { "---|" } else { "---:|" });
        }
        out.push('\n');
        for r in &self.rows {
            let cells: Vec<String> = r.iter().map(Cell::to_string).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out.push('\n');
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let kv: Vec<String> = self
                    .columns
                    .iter()
                    .zip(r)
                    .map(|(k, c)| format!("\"{}\": {}", esc(k), c.json()))
                    .collect();
                format!("    {{{}}}", kv.join(", "))
            })
            .collect();
        if rows.is_empty() {
            return format!("  \"{}\": []", self.name);
        }
        format!("  \"{}\": [\n{}\n  ]", self.name, rows.join(",\n"))
    }
}

/// One experiment's output: a schema string, the run header (what the run
/// was, then `debug_build` and `machine`), optional top-level scalar
/// params, and its tables.
#[derive(Clone, Debug)]
pub struct Report {
    pub schema: &'static str,
    /// Markdown `##` heading.
    pub title: String,
    /// Markdown paragraph under the heading (none when empty).
    pub intro: String,
    /// What the run was: `scale`, `runs` and `threads` for an experiment
    /// ([`Report::new`]); the microbenchmark's own options for `expt
    /// barriers` (`crate::micro::report`).
    pub header: Vec<(&'static str, Cell)>,
    pub params: Vec<(&'static str, Cell)>,
    pub tables: Vec<Table>,
}

impl Report {
    /// A report of an experiment run under `opts`.
    pub fn new(schema: &'static str, title: impl Into<String>, opts: &ExptOpts) -> Report {
        Report::with_header(schema, title, expt_header(opts))
    }

    /// A report whose run header is `header`.
    pub fn with_header(
        schema: &'static str,
        title: impl Into<String>,
        header: Vec<(&'static str, Cell)>,
    ) -> Report {
        Report {
            schema,
            title: title.into(),
            intro: String::new(),
            header,
            params: Vec::new(),
            tables: Vec::new(),
        }
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    pub fn markdown(&self) -> String {
        let mut out = format!("## {}\n\n", self.title);
        if !self.intro.is_empty() {
            out.push_str(&format!("{}\n\n", self.intro));
        }
        if !self.params.is_empty() {
            let kv: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k} {v}"))
                .collect();
            out.push_str(&format!("{}\n\n", kv.join(", ")));
        }
        for t in &self.tables {
            t.markdown(&mut out);
        }
        out
    }

    pub fn json(&self) -> String {
        let kv = |(k, v): &(&str, Cell)| format!("  \"{k}\": {}", v.json());
        let mut entries = vec![format!("  \"schema\": \"{}\"", self.schema)];
        entries.extend(self.header.iter().map(kv));
        entries.push(format!("  \"debug_build\": {}", cfg!(debug_assertions)));
        entries.push(format!("  \"machine\": {}", machine_json()));
        entries.extend(self.params.iter().map(kv));
        entries.extend(self.tables.iter().map(Table::json));
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }
}

/// The run header of an experiment: its scale, repetitions and threads.
fn expt_header(opts: &ExptOpts) -> Vec<(&'static str, Cell)> {
    vec![
        ("scale", scale_name(opts.scale).into()),
        ("runs", opts.runs.into()),
        ("threads", opts.threads.into()),
    ]
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The machine fingerprint a timing row is only comparable under, as a
/// JSON object: core count, CPU model and compiler (ROADMAP aim 1 — "a
/// number without a machine fingerprint is an anecdote").
fn machine_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let rustc = std::process::Command::new("rustc").arg("-V").output();
    let rustc = rustc.map_or_else(
        |_| "unknown".to_string(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
    );
    format!(
        "{{\"available_parallelism\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\"}}",
        crate::scaling::available_parallelism(),
        esc(cpu),
        esc(&rustc)
    )
}

pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// The barrier configurations tracked across PRs.
fn tracked_configs() -> Vec<TxConfig> {
    let mut v = vec![TxConfig::with_mode(Mode::Baseline)];
    for log in LogKind::ALL {
        v.push(TxConfig::with_mode(Mode::Runtime {
            log,
            scope: CheckScope::FULL,
        }));
    }
    // The nursery configuration under comparison (tree fallback).
    v.push(TxConfig::runtime_tree_nursery());
    v.push(TxConfig::with_mode(Mode::Compiler));
    v.push(TxConfig::with_mode(Mode::CompilerInterproc));
    v
}

/// Resolve a comma-separated `--benchmarks` filter ("vacation,intruder")
/// into the STAMP subset to run. A token matches a benchmark whose name
/// equals it, starts with it, or equals it with spaces dashed
/// ("vacation" matches both vacation configurations). Unknown tokens are
/// an `Err` listing the valid names.
pub fn parse_benchmark_filter(spec: &str) -> Result<Vec<Benchmark>, String> {
    let mut out = Vec::new();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let tl = token.to_ascii_lowercase();
        let matched: Vec<Benchmark> = Benchmark::ALL
            .into_iter()
            .filter(|b| {
                let name = b.name();
                name == tl || name.starts_with(&tl) || name.replace(' ', "-") == tl
            })
            .collect();
        if matched.is_empty() {
            let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            return Err(format!(
                "unknown benchmark {token:?}; valid names: {}",
                names.join(", ")
            ));
        }
        for b in matched {
            if !out.contains(&b) {
                out.push(b);
            }
        }
    }
    if out.is_empty() {
        return Err("empty --benchmarks filter".into());
    }
    Ok(out)
}

/// The STAMP section of `BENCH_barriers.json`: every benchmark under every
/// tracked mode. `seconds` is the **median of `opts.runs` repetitions**
/// (single wall-clock samples are far too noisy to serve as a cross-PR
/// trajectory); the counters come from the last of them. The nursery
/// columns read 0 outside the `+nursery` mode, where `heap_verdicts`
/// (heap-elided + parent-captured barriers) is the population the scalar
/// range competes for. `benchmarks` restricts the suite (CI's smoke step
/// runs only the allocation-heavy pair); `None` runs all of it.
pub fn stamp_table(opts: &ExptOpts, benchmarks: Option<&[Benchmark]>) -> Table {
    let mut t = Table::new("stamp", "STAMP per tracked mode");
    for cfg in tracked_configs() {
        for &b in benchmarks.unwrap_or(&Benchmark::ALL) {
            let (seconds, r) = crate::stamp_runs(b, opts.scale, cfg, opts.threads, opts.runs);
            let s = r.stats;
            let all = s.all_accesses();
            t.push(vec![
                ("benchmark", b.name().into()),
                ("mode", cfg.label().into()),
                ("threads", opts.threads.into()),
                ("seconds", Cell::Float(crate::median(seconds), 6)),
                ("runs", opts.runs.into()),
                ("commits", s.commits.into()),
                ("aborts", s.aborts.into()),
                ("elided_fraction", Cell::Float(all.elided_fraction(), 4)),
                ("ranged_spans", s.ranged_spans.into()),
                ("ranged_fallbacks", s.ranged_fallbacks.into()),
                ("conflict_read_locked", s.conflict_read_locked.into()),
                ("conflict_write_locked", s.conflict_write_locked.into()),
                ("conflict_validation", s.conflict_validation.into()),
                ("backoff_waits", s.backoff_waits.into()),
                ("cm_karma_escalations", s.cm_karma_escalations.into()),
                ("cm_serializations", s.cm_serializations.into()),
                ("attempts_max", s.attempts_max.into()),
                ("p50_ns", s.latency_pct_ns(0.5).into()),
                ("p99_ns", s.latency_pct_ns(0.99).into()),
                ("nursery_hits", s.nursery_hits.into()),
                (
                    "heap_verdicts",
                    (all.elided_heap + all.parent_captured).into(),
                ),
                ("nursery_regions", s.nursery_regions.into()),
                ("nursery_bytes_recycled", s.nursery_bytes_recycled.into()),
            ]);
        }
    }
    t
}

/// The `bench-json` report (schema `bench_barriers/v2`, the committed
/// `BENCH_barriers.json`): the `barrier_dispatch` microbenchmark, then
/// [`stamp_table`].
pub fn bench_report(
    opts: &ExptOpts,
    micro: &MicroOpts,
    benchmarks: Option<&[Benchmark]>,
) -> Report {
    let mut r = crate::micro::report(micro);
    r.schema = "bench_barriers/v2";
    // The STAMP table runs under `opts`, the microbenchmark's rows at
    // its own sampling.
    r.header = expt_header(opts);
    r.header.extend(micro.sampling());
    r.tables.push(stamp_table(opts, benchmarks));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barriers_and_bench_json_reports_have_distinct_schemas() {
        // Same first table, different table sets: the schema must say
        // which shape a file has.
        let (opts, micro) = (ExptOpts::default(), MicroOpts::smoke());
        let barriers = crate::micro::report(&micro);
        let bench = bench_report(&opts, &micro, Some(&[]));
        assert_ne!(barriers.schema, bench.schema);
        assert_eq!(barriers.tables.len() + 1, bench.tables.len());
        // The STAMP table's run, then the microbenchmark's sampling.
        let keys = |r: &Report| r.header.iter().map(|h| h.0).collect::<Vec<_>>();
        assert_eq!(keys(&barriers), ["threads", "samples", "txns_per_sample"]);
        assert_eq!(
            keys(&bench),
            ["scale", "runs", "threads", "samples", "txns_per_sample"]
        );
        let snapshot = include_str!("../../../BENCH_barriers.json");
        assert!(
            snapshot.contains(&format!("\"schema\": \"{}\"", bench.schema)),
            "bench-json keeps the committed snapshot's schema"
        );
    }

    #[test]
    fn report_is_parseable_shape() {
        let mut t = Table::new("rows", "");
        t.push(vec![
            ("name", "a \"quoted\" \\ name".into()),
            ("count", 3u64.into()),
            ("share", Cell::Float(0.5, 4)),
        ]);
        t.push(vec![
            ("name", "b".into()),
            ("count", 0u64.into()),
            ("share", Cell::Float(f64::NAN, 2)),
        ]);
        let mut r = Report::new("bench_x/v2", "X", &ExptOpts::test(2));
        r.params.push(("seed", Cell::Int(7)));
        r.tables.extend([t, Table::new("empty", "")]);
        let json = r.json();
        // No serde available: structural spot checks instead of a parser.
        assert!(json.starts_with(
            "{\n  \"schema\": \"bench_x/v2\",\n  \"scale\": \"test\",\n  \"runs\": 1,\n  \
             \"threads\": 2,\n"
        ));
        assert!(json.contains("\"machine\": {\"available_parallelism\": "));
        assert!(json.contains("\n  \"seed\": 7,\n  \"rows\": [\n"));
        assert!(json.contains(
            "    {\"name\": \"a \\\"quoted\\\" \\\\ name\", \"count\": 3, \"share\": 0.5000},\n"
        ));
        assert!(json.ends_with("\"share\": null}\n  ],\n  \"empty\": []\n}\n"));

        let md = r.markdown();
        assert!(md.starts_with("## X\n\nseed 7\n\n| name | count | share |\n|---|---:|---:|\n"));
        assert!(md.ends_with("| b | 0 | NaN |\n\n"));

        let t = &r.tables[0];
        assert_eq!(t.value(&[("name", "b")], "count"), Some(0.0));
        assert_eq!(t.value(&[("name", "c")], "count"), None);
        assert_eq!(t.value(&[("name", "b")], "nope"), None);
        assert_eq!(
            t.value(&[("count", "3")], "name"),
            None,
            "text has no value"
        );
    }

    #[test]
    fn pivot_spreads_one_column() {
        let mut t = Table::new("rows", "");
        for (d, m, x) in [
            ("s", "off", 1.0),
            ("s", "on", 2.0),
            ("c", "off", 1.0),
            ("c", "on", 3.0),
        ] {
            t.push(vec![
                ("driver", d.into()),
                ("mode", m.into()),
                ("tax", Cell::Float(x, 2)),
            ]);
        }
        let p = t.pivot("tax", &["driver"], "mode", "tax");
        assert_eq!(p.columns, ["driver", "mode=off", "mode=on"]);
        assert_eq!(
            p.rows[1],
            [Cell::from("c"), Cell::Float(1.0, 2), Cell::Float(3.0, 2)]
        );
    }

    #[test]
    fn benchmark_filter_resolves_subsets() {
        let v = parse_benchmark_filter("vacation,intruder").unwrap();
        assert_eq!(
            v,
            vec![
                Benchmark::VacationHigh,
                Benchmark::VacationLow,
                Benchmark::Intruder
            ]
        );
        assert_eq!(
            parse_benchmark_filter("kmeans high").unwrap(),
            vec![Benchmark::KmeansHigh]
        );
        assert_eq!(
            parse_benchmark_filter("kmeans-low").unwrap(),
            vec![Benchmark::KmeansLow]
        );
        assert!(parse_benchmark_filter("nope").is_err());
        assert!(parse_benchmark_filter("").is_err());
    }

    // A filtered STAMP section still has every tracked mode, only fewer
    // benchmarks; under the nursery mode the scalar range serves most of
    // the captured-heap verdicts.
    #[test]
    fn stamp_rows_cover_modes_and_the_nursery_hits() {
        let t = stamp_table(
            &ExptOpts::test(1),
            Some(&[Benchmark::VacationLow, Benchmark::Intruder]),
        );
        assert_eq!(t.rows.len(), 2 * tracked_configs().len());
        let nursery = "runtime-tree+nursery (r+w/stack+heap)";
        for mode in ["baseline", "compiler", nursery] {
            assert!(t.find(&[("mode", mode)]).is_some(), "{mode}");
        }
        for b in ["vacation low", "intruder"] {
            let sel = [("benchmark", b), ("mode", nursery)];
            let hits = t.value(&sel, "nursery_hits").unwrap();
            let share = hits / t.value(&sel, "heap_verdicts").unwrap();
            assert!(hits > 0.0 && share > 0.5, "{b}: share {share}");
            assert!(t.value(&sel, "nursery_regions").unwrap() > 0.0);
            let base = t.value(&[("benchmark", b), ("mode", "baseline")], "nursery_hits");
            assert_eq!(base, Some(0.0));
        }
    }
}
