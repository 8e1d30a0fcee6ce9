//! The gate flags of `expt`: one [`GATES`] row per flag names the report
//! cell it bounds, and one path ([`skip_reason`], [`verdict`]) judges it.

use crate::Report;

/// Which side of its bound a gated cell must stay on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    Max,
    Min,
}

/// When a gate does not judge: debug-build timings are meaningless, and a
/// speedup needs the hardware threads to run in parallel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Skip {
    Never,
    DebugBuild,
    BelowThreads(usize),
}

use Bound::{Max, Min};
use Skip::{BelowThreads, DebugBuild, Never};

/// One gate flag: the subcommand that reads it, and the report cell it
/// bounds — in `table`, the row whose cells read as `row`, then `column`.
pub struct Gate {
    pub flag: &'static str,
    pub cmd: &'static str,
    pub table: &'static str,
    /// `column=value` pairs, comma-separated.
    pub row: &'static str,
    pub column: &'static str,
    pub bound: Bound,
    pub skip: Skip,
}

#[rustfmt::skip]
pub const GATES: [Gate; 7] = [
    Gate { flag: "--max-ratio", cmd: "barriers", table: "ratios",
        row: "name=captured_tree_vs_direct_ratio", column: "ratio", bound: Max, skip: Never },
    Gate { flag: "--max-typed-ratio", cmd: "barriers", table: "ratios",
        row: "name=captured_typed_vs_raw_ratio", column: "ratio", bound: Max, skip: Never },
    Gate { flag: "--max-ranged-ratio", cmd: "barriers", table: "ratios",
        row: "name=ranged_span64_vs_per_word_ratio", column: "ratio", bound: Max, skip: DebugBuild },
    Gate { flag: "--max-nursery-ratio", cmd: "bench-json", table: "ratios",
        row: "name=captured_nursery_vs_direct_ratio", column: "ratio", bound: Max, skip: DebugBuild },
    Gate { flag: "--min-speedup", cmd: "scaling", table: "rows",
        row: "benchmark=vacation low,mode=runtime-tree,threads=4", column: "speedup_vs_1t",
        bound: Min, skip: BelowThreads(4) },
    Gate { flag: "--max-durability-tax", cmd: "durability", table: "rows",
        row: "driver=captured,mode=strict", column: "tax_vs_off", bound: Max, skip: DebugBuild },
    Gate { flag: "--min-pool-throughput", cmd: "pool", table: "rows",
        row: "arm=plain", column: "ops_per_sec", bound: Min, skip: DebugBuild },
];

/// The [`GATES`] row of `flag`.
pub fn gate(flag: &str) -> &'static Gate {
    GATES
        .iter()
        .find(|g| g.flag == flag)
        .unwrap_or_else(|| panic!("no gate {flag}"))
}

/// Why `g` does not judge on this machine, if it does not.
pub fn skip_reason(g: &Gate) -> Option<String> {
    let cores = crate::scaling::available_parallelism();
    match g.skip {
        DebugBuild if cfg!(debug_assertions) => Some("debug build".into()),
        BelowThreads(n) if cores < n => Some(format!("only {cores} hardware thread(s) available")),
        _ => None,
    }
}

/// `g`'s verdict on `r` at `bound`: the cell when it holds the bound, the
/// failure line otherwise.
pub fn verdict(g: &Gate, bound: f64, r: &Report) -> Result<f64, String> {
    let sel: Vec<(&str, &str)> = g
        .row
        .split(',')
        .filter_map(|kv| kv.split_once('='))
        .collect();
    let what = format!("{} {} row {}", g.column, g.table, g.row);
    let v = r
        .table(g.table)
        .and_then(|t| t.value(&sel, g.column))
        .ok_or_else(|| format!("{}: no {what}", g.flag))?;
    match g.bound {
        Max if v <= bound => Ok(v),
        Min if v >= bound => Ok(v),
        Max => Err(format!("{what}: {v:.2} exceeds {} {bound:.2}", g.flag)),
        Min => Err(format!("{what}: {v:.2} below {} {bound:.2}", g.flag)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, ExptOpts, Table};

    #[test]
    fn gates_keep_their_verdicts() {
        for g in &GATES {
            // A report whose only row is the gated one, the cell at 2.
            let mut cells: Vec<(&str, Cell)> = g
                .row
                .split(',')
                .map(|kv| kv.split_once('=').unwrap())
                .map(|(k, v)| (k, v.into()))
                .collect();
            cells.push((g.column, Cell::Float(2.0, 2)));
            let mut t = Table::new(g.table, "");
            t.push(cells);
            let mut r = Report::new("x/v1", "x", &ExptOpts::default());
            r.tables.push(t);
            let (holds, misses) = if g.bound == Max {
                (3.0, 1.0)
            } else {
                (1.0, 3.0)
            };
            assert_eq!(verdict(g, holds, &r), Ok(2.0), "{}", g.flag);
            assert!(verdict(g, misses, &r).is_err(), "{}", g.flag);
            r.tables[0].name = "other";
            assert!(verdict(g, holds, &r).is_err(), "{}", g.flag);
            let skips = skip_reason(g).is_some();
            match g.skip {
                Never => assert!(!skips),
                DebugBuild => assert_eq!(skips, cfg!(debug_assertions)),
                BelowThreads(n) => {
                    assert_eq!(skips, crate::scaling::available_parallelism() < n)
                }
            }
        }
        let skip = |flag| gate(flag).skip;
        assert_eq!(skip("--min-speedup"), BelowThreads(4));
        assert_eq!(
            (skip("--max-ratio"), skip("--max-typed-ratio")),
            (Never, Never)
        );
        for flag in [
            "--max-ranged-ratio",
            "--max-nursery-ratio",
            "--max-durability-tax",
            "--min-pool-throughput",
        ] {
            assert_eq!(skip(flag), DebugBuild);
        }
    }
}
