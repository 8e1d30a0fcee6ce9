//! The thread-scaling experiment (`expt scaling`): STAMP at 1/2/4/8
//! threads under {baseline, runtime-tree, compiler}, in the spirit of the
//! paper's Figures 10/11 whose evaluation axis is speedup vs. thread
//! count. Emits `BENCH_scaling.json` (committed snapshot, like
//! `BENCH_barriers.json`) so PRs that touch the commit/allocation spines
//! have a scaling trajectory to diff against.
//!
//! Honesty note: the report's `machine` header carries the
//! `available_parallelism`. On a single-core box 4 worker threads
//! time-slice one CPU and the measured speedup is ~1x by construction;
//! `expt scaling --min-speedup` therefore only gates when the hardware can
//! actually run the threads in parallel.

use stamp::Benchmark;
use stm::{Mode, TxConfig};

use crate::report::{scale_name, Cell, Report, Table};
use crate::{median, stamp_runs, ExptOpts};

/// The paper's Figure 10/11 thread axis, clamped to powers of two our CI
/// box can schedule.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The three configurations tracked across PRs (label, config).
pub fn scaling_modes() -> Vec<(&'static str, TxConfig)> {
    vec![
        ("baseline", TxConfig::default()),
        ("runtime-tree", TxConfig::runtime_tree_full()),
        ("compiler", TxConfig::with_mode(Mode::Compiler)),
    ]
}

/// Run the full matrix: a `rows` table ordered benchmark-major, then
/// mode, then thread count, so the 1-thread row of a series always
/// precedes (and seeds the `speedup_vs_1t` baseline of) the wider rows;
/// then its speedup pivot. `seconds` is the median wall time of the
/// parallel phase; total work is fixed per benchmark, so
/// `commits_per_sec` is the throughput axis.
pub fn report(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_scaling/v3",
        format!(
            "Thread scaling — speedup vs. 1 thread (scale {}, median of {} runs, {} hw threads)",
            scale_name(opts.scale),
            opts.runs,
            available_parallelism()
        ),
        opts,
    );
    let mut t = Table::new("rows", "");
    for b in Benchmark::ALL {
        for (mode, cfg) in scaling_modes() {
            let mut base_seconds = f64::NAN;
            for threads in THREAD_COUNTS {
                let (secs, out) = stamp_runs(b, opts.scale, cfg, threads, opts.runs);
                let seconds = median(secs);
                if threads == 1 {
                    base_seconds = seconds;
                }
                let s = out.stats;
                t.push(vec![
                    ("benchmark", b.name().into()),
                    ("mode", mode.into()),
                    ("threads", threads.into()),
                    ("seconds", Cell::Float(seconds, 6)),
                    (
                        "commits_per_sec",
                        Cell::Float(s.commits as f64 / seconds, 1),
                    ),
                    ("speedup_vs_1t", Cell::Float(base_seconds / seconds, 3)),
                    ("commits", s.commits.into()),
                    ("commits_ro", s.commits_ro.into()),
                    ("aborts", s.aborts.into()),
                    ("clock_adopts", s.clock_adopts.into()),
                    ("clock_advances", s.clock_advances.into()),
                    ("extensions", s.extensions.into()),
                ]);
            }
        }
    }
    r.tables.push(t.pivot(
        "speedup",
        &["benchmark", "mode"],
        "threads",
        "speedup_vs_1t",
    ));
    r.tables.insert(0, t);
    r
}

/// How many hardware threads this machine can actually run in parallel.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate, skip_reason, verdict};

    /// One run of the full matrix at Test scale (seconds of wall time),
    /// shared by the tests; CI additionally smokes it through `expt
    /// scaling --scale test`.
    fn matrix() -> &'static Report {
        static R: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        R.get_or_init(|| report(&ExptOpts::test(2)))
    }

    // `bench_scaling/v3`: the keys, in order, of v2, plus
    // `clock_advances` beside the adoptions it replaced.
    #[test]
    fn json_has_rows_for_the_full_matrix() {
        assert!(matrix()
            .json()
            .starts_with("{\n  \"schema\": \"bench_scaling/v3\",\n"));
        assert_eq!(
            matrix().tables[0].columns.join(" "),
            "benchmark mode threads seconds commits_per_sec speedup_vs_1t commits commits_ro \
             aborts clock_adopts clock_advances extensions"
        );
    }

    #[test]
    fn rows_cover_modes_and_thread_counts() {
        let r = matrix();
        let t = &r.tables[0];
        let series = Benchmark::ALL.len() * scaling_modes().len();
        assert_eq!(t.rows.len(), series * THREAD_COUNTS.len());
        assert_eq!(r.tables[1].rows.len(), series);
        let speedup = t.columns.iter().position(|c| c == "speedup_vs_1t").unwrap();
        for row in &t.rows {
            assert!(row[speedup].value().unwrap() > 0.0);
        }
        // Every series' 1-thread row is its own speedup baseline.
        for row in r.tables[1].rows.iter() {
            assert!((row[2].value().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    // `--min-speedup` judges vacation low's runtime-tree speedup at 4
    // threads, and skips on hardware that cannot run 4 threads at once.
    #[test]
    fn gate_passes_fails_and_skips() {
        let (g, r) = (gate("--min-speedup"), matrix());
        let sel = [
            ("benchmark", "vacation low"),
            ("mode", "runtime-tree"),
            ("threads", "4"),
        ];
        let speedup = r.tables[0].value(&sel, "speedup_vs_1t").unwrap();
        assert_eq!(verdict(g, speedup * 0.5, r), Ok(speedup));
        assert!(verdict(g, speedup + 1.0, r).is_err());
        let empty = Report::new("x/v1", "x", &ExptOpts::default());
        assert!(verdict(g, 0.0, &empty).is_err());
        assert_eq!(
            skip_reason(g).is_some(),
            available_parallelism() < 4,
            "the gate must skip when the hardware cannot run 4 threads"
        );
    }
}
