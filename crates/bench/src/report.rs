//! Machine-readable benchmark reports (`BENCH_barriers.json`): the
//! `barrier_dispatch` microbenchmark plus one STAMP run per barrier mode,
//! so future PRs have a perf trajectory to diff against. The JSON is
//! written by hand (no serde in the offline container) — flat structure,
//! numbers and strings only.

use stamp::{Benchmark, Scale};
use stm::{CheckScope, LogKind, Mode, TxConfig};

use crate::micro::{
    barrier_dispatch, fastpath_ratio, nursery_ratio, ranged_ratio, txn_fixed_ratio, typed_ratio,
    MicroOpts,
};
use crate::ExptOpts;

pub(crate) fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The machine fingerprint a timing row is only comparable under, as a
/// JSON object: core count, CPU model and compiler (ROADMAP aim 1 — "a
/// number without a machine fingerprint is an anecdote").
pub(crate) fn machine_json() -> String {
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

pub(crate) fn scale_name(s: Scale) -> &'static str {
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

/// Build the full report as a JSON string.
///
/// `opts.scale`/`opts.threads` govern the STAMP section; `"seconds"` is
/// the **median of `opts.runs` repetitions** (single wall-clock samples
/// are far too noisy to serve as a cross-PR trajectory), while the
/// counters come from one additional instrumented run. `benchmarks`
/// restricts the STAMP section to a subset (CI's smoke step runs only the
/// allocation-heavy pair); `None` runs the whole suite.
pub fn bench_json(opts: &ExptOpts, micro: &MicroOpts, benchmarks: Option<&[Benchmark]>) -> String {
    bench_json_from(opts, &barrier_dispatch(micro), benchmarks)
}

/// Like [`bench_json`], over already-collected microbenchmark results (so
/// a caller that also gates on a ratio measures once).
pub fn bench_json_from(
    opts: &ExptOpts,
    results: &[crate::micro::MicroResult],
    benchmarks: Option<&[Benchmark]>,
) -> String {
    let ratio = fastpath_ratio(results);
    let nratio = nursery_ratio(results);
    let suite: Vec<Benchmark> = match benchmarks {
        Some(b) => b.to_vec(),
        None => Benchmark::ALL.to_vec(),
    };

    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema\": \"bench_barriers/v1\",\n  \"scale\": \"{}\",\n  \"threads\": {},\n",
        scale_name(opts.scale),
        opts.threads
    ));
    out.push_str(&format!("  \"debug_build\": {},\n", cfg!(debug_assertions)));
    out.push_str(&format!("  \"machine\": {},\n", machine_json()));

    out.push_str("  \"barrier_dispatch\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"ns_per_access\": {:.3}}}{}\n",
            esc(&r.name),
            r.ns_per_op,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    match ratio {
        Some(r) => out.push_str(&format!("  \"captured_tree_vs_direct_ratio\": {r:.3},\n")),
        None => out.push_str("  \"captured_tree_vs_direct_ratio\": null,\n"),
    }
    match nratio {
        Some(r) => out.push_str(&format!(
            "  \"captured_nursery_vs_direct_ratio\": {r:.3},\n"
        )),
        None => out.push_str("  \"captured_nursery_vs_direct_ratio\": null,\n"),
    }
    match typed_ratio(results) {
        Some(r) => out.push_str(&format!("  \"captured_typed_vs_raw_ratio\": {r:.3},\n")),
        None => out.push_str("  \"captured_typed_vs_raw_ratio\": null,\n"),
    }
    match ranged_ratio(results) {
        Some(r) => out.push_str(&format!("  \"ranged_span64_vs_per_word_ratio\": {r:.3},\n")),
        None => out.push_str("  \"ranged_span64_vs_per_word_ratio\": null,\n"),
    }
    match txn_fixed_ratio(results) {
        Some(r) => out.push_str(&format!("  \"txn_empty_vs_full_barrier_ratio\": {r:.3},\n")),
        None => out.push_str("  \"txn_empty_vs_full_barrier_ratio\": null,\n"),
    }

    out.push_str("  \"stamp\": [\n");
    let configs = tracked_configs();
    let total = configs.len() * suite.len();
    let mut i = 0;
    let runs = opts.runs.max(1);
    for cfg in &configs {
        for &b in &suite {
            let seconds = crate::median(crate::time_runs(b, opts.scale, *cfg, opts.threads, runs));
            let r = b.run(opts.scale, *cfg, opts.threads);
            assert!(
                r.verified,
                "{} failed verification under {}",
                b.name(),
                cfg.label()
            );
            let all = r.stats.all_accesses();
            i += 1;
            out.push_str(&format!(
                "    {{\"benchmark\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
                 \"seconds\": {seconds:.6}, \
                 \"runs\": {runs}, \"commits\": {}, \"aborts\": {}, \
                 \"elided_fraction\": {:.4}, \
                 \"ranged_spans\": {}, \"ranged_fallbacks\": {}, \
                 \"conflict_read_locked\": {}, \"conflict_write_locked\": {}, \
                 \"conflict_validation\": {}, \"backoff_waits\": {}, \
                 \"cm_karma_escalations\": {}, \"cm_serializations\": {}, \
                 \"attempts_max\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
                esc(b.name()),
                esc(&cfg.label()),
                opts.threads,
                r.stats.commits,
                r.stats.aborts,
                all.elided_fraction(),
                r.stats.ranged_spans,
                r.stats.ranged_fallbacks,
                r.stats.conflict_read_locked,
                r.stats.conflict_write_locked,
                r.stats.conflict_validation,
                r.stats.backoff_waits,
                r.stats.cm_karma_escalations,
                r.stats.cm_serializations,
                r.stats.attempts_max,
                r.stats.latency_pct_ns(0.5),
                r.stats.latency_pct_ns(0.99),
                if i < total { "," } else { "" }
            ));
        }
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_parseable_shape() {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 1,
            runs: 1,
        };
        let json = bench_json(&opts, &MicroOpts::smoke(), None);
        // No serde available: structural spot checks instead of a parser.
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"bench_barriers/v1\""));
        assert!(json.contains("\"barrier_dispatch\": ["));
        assert!(json.contains("captured heap hit/tree"));
        assert!(json.contains("captured heap hit/nursery"));
        assert!(json.contains("\"captured_nursery_vs_direct_ratio\": "));
        assert!(json.contains("captured heap hit/tree (typed)"));
        assert!(json.contains("\"captured_typed_vs_raw_ratio\": "));
        assert!(json.contains("ranged captured span 64/tree"));
        assert!(json.contains("\"ranged_span64_vs_per_word_ratio\": "));
        assert!(json.contains("\"ranged_spans\": "));
        assert!(json.contains("\"conflict_validation\": "));
        assert!(json.contains("\"cm_serializations\": "));
        assert!(json.contains("\"attempts_max\": "));
        assert!(json.contains("\"p99_ns\": "));
        assert!(json.contains("\"stamp\": ["));
        assert!(
            json.contains("\"threads\": 1,"),
            "stamp rows must carry their thread count"
        );
        assert!(json.contains("\"mode\": \"baseline\""));
        assert!(json.contains("\"mode\": \"compiler\""));
        assert!(json.contains("\"mode\": \"runtime-tree+nursery (r+w/stack+heap)\""));
        // Balanced braces/brackets (cheap well-formedness guard).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert!(!json.contains(",\n  ]"), "no trailing commas");
        assert!(!json.contains(",\n    ]"), "no trailing commas");
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
        // A filtered report still has every tracked mode, only fewer rows.
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 1,
            runs: 1,
        };
        let json = bench_json(&opts, &MicroOpts::smoke(), Some(&[Benchmark::Intruder]));
        assert!(json.contains("\"benchmark\": \"intruder\""));
        assert!(!json.contains("\"benchmark\": \"yada\""));
        assert!(!json.contains(",\n  ]"), "no trailing commas");
    }
}
