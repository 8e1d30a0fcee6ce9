//! The thread-scaling experiment (`expt scaling`): STAMP at 1/2/4/8
//! threads under {baseline, runtime-tree, compiler}, in the spirit of the
//! paper's Figures 10/11 whose evaluation axis is speedup vs. thread
//! count. Emits `BENCH_scaling.json` (committed snapshot, like
//! `BENCH_barriers.json`) so PRs that touch the commit/allocation spines
//! have a scaling trajectory to diff against.
//!
//! Honesty note: rows carry the machine's `available_parallelism`. On a
//! single-core box 4 worker threads time-slice one CPU and the measured
//! speedup is ~1x by construction; the speedup gate
//! ([`speedup_gate`]) therefore only enforces when the hardware can
//! actually run the threads in parallel.

use stamp::{Benchmark, RunOutcome};
use stm::{TxConfig, TxStats};

use crate::report::{esc, scale_name};
use crate::{baseline_cfg, compiler_cfg, median, ExptOpts};

/// The paper's Figure 10/11 thread axis, clamped to powers of two our CI
/// box can schedule.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The three configurations tracked across PRs (label, config).
pub fn scaling_modes() -> Vec<(&'static str, TxConfig)> {
    vec![
        ("baseline", baseline_cfg()),
        ("runtime-tree", TxConfig::runtime_tree_full()),
        ("compiler", compiler_cfg()),
    ]
}

/// One measured (benchmark, mode, thread-count) cell.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    pub benchmark: &'static str,
    pub mode: &'static str,
    pub threads: usize,
    /// Median wall time of the parallel phase over `runs` repetitions.
    pub seconds: f64,
    /// Committed transactions per second (total work is fixed per
    /// benchmark, so this is the throughput axis).
    pub commits_per_sec: f64,
    /// `seconds(1 thread) / seconds(this)` within the same benchmark×mode.
    pub speedup_vs_1t: f64,
    pub stats: TxStats,
}

/// Run the full matrix. Rows are ordered benchmark-major, then mode, then
/// thread count, so the 1-thread row of a series always precedes (and
/// seeds the speedup baseline of) the wider rows.
pub fn scaling_rows(opts: &ExptOpts) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        for (mode, cfg) in scaling_modes() {
            let mut base_seconds = f64::NAN;
            for &threads in &THREAD_COUNTS {
                let outs: Vec<RunOutcome> = (0..opts.runs.max(1))
                    .map(|_| {
                        let out = b.run(opts.scale, cfg, threads);
                        assert!(
                            out.verified,
                            "{} failed verification under {mode}",
                            b.name()
                        );
                        out
                    })
                    .collect();
                let seconds = median(outs.iter().map(|o| o.elapsed.as_secs_f64()).collect());
                let stats = outs.last().expect("runs >= 1").stats;
                if threads == 1 {
                    base_seconds = seconds;
                }
                rows.push(ScalingRow {
                    benchmark: b.name(),
                    mode,
                    threads,
                    seconds,
                    commits_per_sec: if seconds > 0.0 {
                        stats.commits as f64 / seconds
                    } else {
                        0.0
                    },
                    speedup_vs_1t: if seconds > 0.0 {
                        base_seconds / seconds
                    } else {
                        0.0
                    },
                    stats,
                });
            }
        }
    }
    rows
}

/// How many hardware threads this machine can actually run in parallel.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Render the `BENCH_scaling.json` report (hand-written JSON; no serde in
/// the offline container).
pub fn scaling_json(opts: &ExptOpts, rows: &[ScalingRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema\": \"bench_scaling/v1\",\n  \"scale\": \"{}\",\n  \"runs\": {},\n",
        scale_name(opts.scale),
        opts.runs.max(1)
    ));
    out.push_str(&format!("  \"debug_build\": {},\n", cfg!(debug_assertions)));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        available_parallelism()
    ));
    out.push_str(&format!(
        "  \"thread_counts\": [{}],\n",
        THREAD_COUNTS
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"seconds\": {:.6}, \"commits_per_sec\": {:.1}, \"speedup_vs_1t\": {:.3}, \
             \"commits\": {}, \"commits_ro\": {}, \"aborts\": {}, \"clock_adopts\": {}, \"extensions\": {}}}{}\n",
            esc(r.benchmark),
            esc(r.mode),
            r.threads,
            r.seconds,
            r.commits_per_sec,
            r.speedup_vs_1t,
            r.stats.commits,
            r.stats.commits_ro,
            r.stats.aborts,
            r.stats.clock_adopts,
            r.stats.extensions,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Markdown rendering for the terminal: one table per mode, thread counts
/// as columns, speedup-vs-1-thread cells.
pub fn render_markdown(opts: &ExptOpts, rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## Thread scaling — speedup vs. 1 thread (scale {}, median of {} runs, {} hw threads)\n\n",
        scale_name(opts.scale),
        opts.runs.max(1),
        available_parallelism()
    ));
    for (mode, _) in scaling_modes() {
        out.push_str(&format!("### {mode}\n\n| benchmark |"));
        for t in THREAD_COUNTS {
            out.push_str(&format!(" {t}t |"));
        }
        out.push_str("\n|---|");
        for _ in THREAD_COUNTS {
            out.push_str("---:|");
        }
        out.push('\n');
        for b in Benchmark::ALL {
            let mut line = format!("| {} |", b.name());
            for t in THREAD_COUNTS {
                let cell = rows
                    .iter()
                    .find(|r| r.benchmark == b.name() && r.mode == mode && r.threads == t);
                match cell {
                    Some(r) => line.push_str(&format!(" {:.2}x |", r.speedup_vs_1t)),
                    None => line.push_str(" - |"),
                }
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Regression gate: `benchmark` under `mode` at `threads` threads must
/// reach `min` speedup over its own 1-thread row. Returns the measured
/// speedup, or `None` when the machine cannot run `threads` in parallel
/// (time-slicing one core cannot speed anything up, so the gate would
/// only measure scheduler noise).
pub fn speedup_gate(
    rows: &[ScalingRow],
    benchmark: &str,
    mode: &str,
    threads: usize,
    min: f64,
) -> Result<Option<f64>, String> {
    if available_parallelism() < threads {
        return Ok(None);
    }
    let row = rows
        .iter()
        .find(|r| r.benchmark == benchmark && r.mode == mode && r.threads == threads)
        .ok_or_else(|| format!("no scaling row for {benchmark}/{mode}/{threads}t"))?;
    if row.speedup_vs_1t >= min {
        Ok(Some(row.speedup_vs_1t))
    } else {
        Err(format!(
            "{benchmark}/{mode}: {threads}-thread speedup {:.2}x below required {min:.2}x",
            row.speedup_vs_1t
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp::Scale;

    fn fake_row(mode: &'static str, threads: usize, speedup: f64) -> ScalingRow {
        ScalingRow {
            benchmark: "vacation low",
            mode,
            threads,
            seconds: 1.0 / speedup,
            commits_per_sec: 100.0 * speedup,
            speedup_vs_1t: speedup,
            stats: TxStats::default(),
        }
    }

    #[test]
    fn gate_passes_fails_and_skips() {
        let rows = vec![
            fake_row("runtime-tree", 1, 1.0),
            fake_row("runtime-tree", 4, 2.1),
        ];
        let cores = available_parallelism();
        if cores >= 4 {
            assert_eq!(
                speedup_gate(&rows, "vacation low", "runtime-tree", 4, 1.5).unwrap(),
                Some(2.1)
            );
            assert!(speedup_gate(&rows, "vacation low", "runtime-tree", 4, 3.0).is_err());
        } else {
            assert_eq!(
                speedup_gate(&rows, "vacation low", "runtime-tree", 4, 1.5).unwrap(),
                None,
                "gate must skip when the hardware cannot run 4 threads"
            );
        }
        assert!(
            speedup_gate(&rows, "vacation low", "runtime-tree", 1, 0.5)
                .unwrap()
                .is_some(),
            "1-thread gate never skips"
        );
        assert!(speedup_gate(&rows, "nope", "runtime-tree", 1, 0.5).is_err());
    }

    #[test]
    fn json_has_rows_for_the_full_matrix() {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 2,
            runs: 1,
        };
        let rows: Vec<ScalingRow> = vec![fake_row("baseline", 1, 1.0)];
        let json = scaling_json(&opts, &rows);
        assert!(json.contains("\"schema\": \"bench_scaling/v1\""));
        assert!(json.contains("\"thread_counts\": [1, 2, 4, 8]"));
        assert!(json.contains("\"speedup_vs_1t\": 1.000"));
        assert!(json.contains("\"clock_adopts\": 0, \"extensions\": 0"));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    // One run of the full matrix at Test scale (seconds of wall time);
    // CI additionally smokes it through `expt scaling --scale test`.
    #[test]
    fn rows_cover_modes_and_thread_counts() {
        let opts = ExptOpts {
            scale: Scale::Test,
            threads: 2,
            runs: 1,
        };
        let rows = scaling_rows(&opts);
        assert_eq!(
            rows.len(),
            Benchmark::ALL.len() * scaling_modes().len() * THREAD_COUNTS.len()
        );
        for r in &rows {
            assert!(r.seconds >= 0.0 && r.speedup_vs_1t > 0.0);
        }
        // Every series' 1-thread row is its own speedup baseline.
        for r in rows.iter().filter(|r| r.threads == 1) {
            assert!((r.speedup_vs_1t - 1.0).abs() < 1e-9);
        }
    }
}
