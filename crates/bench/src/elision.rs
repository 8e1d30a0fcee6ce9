//! The barrier-elision experiment (`expt elision`): run the real `txcc`
//! analyses over STAMP-representative mini-language programs and compare
//! three compiler configurations —
//!
//! * **intraprocedural**: the paper's §3.2 flow analysis with *no* help
//!   across calls;
//! * **intraproc+inlining**: the same analysis after bounded inlining
//!   (the paper's actual pipeline — "relies on function inlining to
//!   extend the analysis results across function calls");
//! * **interprocedural**: the summary-based whole-program pass
//!   (`txcc::interproc`), no inlining at all.
//!
//! Each mini-app mirrors the transactional shape DESIGN.md §4.4 describes
//! for its STAMP namesake — helper constructors behind the allocator
//! guard that defeats bounded inlining, captured-buffer laundering,
//! stack-slot iterators, and the no-opportunity kernels — so the
//! cross-config deltas are the ones the site tags in `crates/stamp` claim.
//!
//! The experiment is also a gate. For every app it asserts:
//!
//! 1. **superset** — the interprocedural pass elides every site the
//!    intraprocedural pass elides ([`txcc::interproc::check_superset`]);
//! 2. **ordering** — dynamically executed elisions are `interproc ≥
//!    intraproc` and `interproc ≥ intraproc+inlining` per app, and
//!    strictly greater than intraprocedural in aggregate;
//! 3. **soundness** — a naive build runs under the runtime's precise
//!    capture oracle ([`txcc::SiteAudit`]) and every interprocedural
//!    `Elide` site must be observed captured on all executions;
//! 4. **semantics** — all four builds produce bit-identical shared memory.
//!
//! `expt elision` prints the report's tables — per app, per (app,
//! configuration), and the Figure-8 categories of the audited naive run —
//! as Markdown; `--out` writes them as `BENCH_elision.json` (committed
//! snapshot, like the other BENCH files).

use stm::{StmRuntime, TxConfig};
use txcc::capture::{desugar_address_taken, sites_in_atomic};
use txcc::codegen::OptLevel;
use txcc::{compile, interproc, parse, Vm};
use txmem::MemConfig;

use crate::report::{Cell, Report, Table};
use crate::{share, ExptOpts};

/// One STAMP-representative mini-language program.
pub struct MiniApp {
    pub name: &'static str,
    /// What the app demonstrates (one line, carried into the report).
    pub pattern: &'static str,
    src: &'static str,
    /// Loop-trip argument passed to `main(s, n)`.
    n: u64,
    /// Words of shared buffer handed to `main`.
    shared_words: u64,
}

/// The corpus. Every `main` takes `(s, n)`: a shared buffer and a trip
/// count. Helpers carry the allocator-failure guard (an early return)
/// that real STAMP constructors have, which makes them un-inlinable for
/// `txcc::inline` — precisely the gap the interprocedural pass closes.
pub const APPS: &[MiniApp] = &[
    MiniApp {
        name: "genome",
        pattern: "segment nodes built by a factory too big for bounded inlining; caller links them",
        src: "fn mk_node(key, val) {
                  var node = malloc(208);
                  node[1] = key;
                  node[2] = val;
                  node[3] = 0;
                  node[4] = 0;
                  node[5] = 0;
                  node[6] = 0;
                  node[7] = 0;
                  node[8] = 0;
                  node[9] = 0;
                  node[10] = 0;
                  node[11] = 0;
                  node[12] = 0;
                  node[13] = 0;
                  node[14] = 0;
                  node[15] = 0;
                  node[16] = 0;
                  node[17] = 0;
                  node[18] = 0;
                  node[19] = 0;
                  node[20] = 0;
                  node[21] = 0;
                  node[22] = 0;
                  node[23] = 0;
                  node[24] = 0;
                  return node;
              }
              fn main(s, n) {
                  var i = 0;
                  while (i < n) {
                      atomic {
                          var node = mk_node(i, i * 2);
                          node[0] = s[0];
                          s[0] = node;
                      }
                      i = i + 1;
                  }
                  return 0;
              }",
        n: 48,
        shared_words: 8,
    },
    MiniApp {
        name: "vacation",
        pattern: "caller allocates records; a guarded constructor initializes through the pointer",
        src: "fn res_init(rec, total, price) {
                  if (total == 0) { return 0; }
                  rec[0] = total;
                  rec[1] = total;
                  rec[2] = price;
                  return 1;
              }
              fn main(s, n) {
                  var i = 0;
                  while (i < n) {
                      atomic {
                          var rec = malloc(24);
                          var z = res_init(rec, 50 + i, 90);
                          s[i + 1] = rec;
                          s[0] = s[0] + 1;
                      }
                      i = i + 1;
                  }
                  return 0;
              }",
        n: 48,
        shared_words: 64,
    },
    MiniApp {
        name: "intruder",
        pattern: "flow record from an oversized factory, finished through a guarded helper",
        src: "fn set_sum(rec, v) {
                  if (v > 1048576) { return 0; }
                  rec[2] = v;
                  return 1;
              }
              fn mk_flow(expect) {
                  var rec = malloc(224);
                  rec[1] = expect;
                  rec[3] = 0;
                  rec[4] = 0;
                  rec[5] = 0;
                  rec[6] = 0;
                  rec[7] = 0;
                  rec[8] = 0;
                  rec[9] = 0;
                  rec[10] = 0;
                  rec[11] = 0;
                  rec[12] = 0;
                  rec[13] = 0;
                  rec[14] = 0;
                  rec[15] = 0;
                  rec[16] = 0;
                  rec[17] = 0;
                  rec[18] = 0;
                  rec[19] = 0;
                  rec[20] = 0;
                  rec[21] = 0;
                  rec[22] = 0;
                  rec[23] = 0;
                  rec[24] = 0;
                  rec[25] = 0;
                  return rec;
              }
              fn main(s, n) {
                  var i = 0;
                  while (i < n) {
                      atomic {
                          var rec = mk_flow(4);
                          rec[0] = 1;
                          var z = set_sum(rec, i);
                          s[0] = s[0] + rec[2];
                      }
                      i = i + 1;
                  }
                  return 0;
              }",
        n: 48,
        shared_words: 8,
    },
    MiniApp {
        name: "kmeans",
        pattern: "shared accumulator updates only: no elision opportunity in any pipeline",
        src: "fn main(s, n) {
                  var i = 0;
                  while (i < n) {
                      atomic {
                          var k = i - (i / 4) * 4;
                          s[k] = s[k] + 1;
                          s[4] = s[4] + 1;
                      }
                      i = i + 1;
                  }
                  return 0;
              }",
        n: 64,
        shared_words: 8,
    },
    MiniApp {
        name: "labyrinth",
        pattern: "grid writes are genuinely shared; BFS bookkeeping lives in registers",
        src: "fn main(s, n) {
                  var i = 0;
                  while (i < n) {
                      atomic {
                          var pos = s[8 + i];
                          s[16 + pos] = i;
                          s[0] = s[0] + 1;
                      }
                      i = i + 1;
                  }
                  return 0;
              }",
        n: 48,
        shared_words: 80,
    },
    MiniApp {
        name: "ssca2",
        pattern: "adjacency temp laundered through a captured cell (field-aware load)",
        src: "fn main(s, n) {
                  atomic {
                      var buf = malloc(16);
                      var tmp = malloc(8);
                      buf[0] = tmp;
                      var t2 = buf[0];
                      t2[0] = 7;
                      var j = 0;
                      while (j < n) {
                          s[2 + j] = t2[0];
                          j = j + 1;
                      }
                  }
                  return 0;
              }",
        n: 48,
        shared_words: 64,
    },
    MiniApp {
        name: "yada",
        pattern: "cavity refinement: loop-allocated elements initialized by a guarded helper",
        src: "fn elem_init(e, quality) {
                  if (quality > 100) { return 0; }
                  e[0] = quality;
                  return 1;
              }
              fn main(s, n) {
                  var i = 0;
                  while (i < n) {
                      atomic {
                          var cavity = malloc(8);
                          cavity[0] = 0;
                          var j = 0;
                          while (j < 3) {
                              var e = malloc(32);
                              var z = elem_init(e, 60 + j);
                              e[1] = cavity[0];
                              cavity[0] = e;
                              j = j + 1;
                          }
                          var head = cavity[0];
                          s[0] = head;
                          s[1] = s[1] + 3;
                      }
                      i = i + 1;
                  }
                  return 0;
              }",
        n: 24,
        shared_words: 8,
    },
    MiniApp {
        name: "bayes",
        pattern: "Fig. 1(a) stack iterator advanced by a helper through its address",
        src: "fn advance(itp, v) {
                  if (v > 1048576) { return 0; }
                  itp[0] = v;
                  return 1;
              }
              fn main(s, n) {
                  var i = 0;
                  while (i < n) {
                      atomic {
                          var it;
                          var a = &it;
                          a[0] = s[0];
                          var z = advance(a, i);
                          var cur = a[0];
                          s[1] = s[1] + cur;
                      }
                      i = i + 1;
                  }
                  return 0;
              }",
        n: 48,
        shared_words: 8,
    },
];

struct RunResult {
    snapshot: Vec<u64>,
    tx_ops: u64,
}

/// Execute one compiled build against a fresh runtime; returns the shared
/// buffer snapshot and the executed barrier-op count. `audit` requests a
/// classify-mode runtime and per-site capture observations.
fn run_app(
    app: &MiniApp,
    prog: &txcc::CompiledProgram,
    n_sites: usize,
    audit: bool,
) -> (RunResult, Option<(txcc::SiteAudit, stm::TxStats)>) {
    let mut cfg = TxConfig::default();
    cfg.classify = audit;
    let rt = StmRuntime::new(MemConfig::small(), cfg);
    let shared = rt.alloc_global(app.shared_words * 8);
    let mut w = rt.spawn_worker();
    let mut vm = if audit {
        Vm::with_audit(prog, n_sites)
    } else {
        Vm::new(prog)
    };
    vm.run(&mut w, "main", &[shared.raw(), app.n]);
    let snapshot: Vec<u64> = (0..app.shared_words)
        .map(|i| w.load(shared.word(i)))
        .collect();
    let tx_ops = vm.stats.tx_loads + vm.stats.tx_stores;
    // Read the per-worker stats *before* they flush into the runtime
    // aggregate on drop (flush_stats zeroes them).
    let stats = w.stats;
    drop(w);
    (RunResult { snapshot, tx_ops }, vm.audit.map(|a| (a, stats)))
}

/// Run the full experiment and enforce its gates; panics with a precise
/// message on any violation (CI runs this as a smoke step). `opts` only
/// fills the report header: the corpus is fixed and single-threaded.
pub fn report(opts: &ExptOpts) -> Report {
    let mut r = Report::new(
        "bench_elision/v2",
        "Elision — static capture analysis across call boundaries",
        opts,
    );
    r.intro = "Dynamically executed barrier elisions per configuration (`elision_rate` = \
               share of the naive build's barrier executions), on STAMP-representative \
               TL programs."
        .into();
    let mut apps = Table::new("apps", "");
    let mut configs = Table::new("configs", "Per configuration");
    // The VM's sites are `required`, so the "not required (other)" bucket
    // is structurally empty here.
    let mut fig8 = Table::new(
        "fig8",
        "Figure-8 categories (audited naive run, barrier ops)",
    );
    let mut total_intra = 0u64;
    let mut total_inter = 0u64;
    for app in APPS {
        // One desugared, non-inlined program shared by every site-indexed
        // artifact (desugaring is deterministic and idempotent, so the
        // compile() calls below reproduce the same site numbering).
        let mut prog = parse(app.src).unwrap_or_else(|e| panic!("{}: parse: {e:?}", app.name));
        desugar_address_taken(&mut prog);
        let n_sites = prog.n_sites;
        let interproc_result = interproc::analyze_program(&prog);
        interproc::check_superset(&prog, &interproc_result)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));

        let naive = compile(&prog, OptLevel::Naive);
        let intra = compile(&prog, OptLevel::CaptureAnalysis);
        let inline = txcc::build(app.src, OptLevel::CaptureAnalysis).unwrap();
        let inter = compile(&prog, OptLevel::CaptureInterproc);

        // Ground truth: audited naive run under the classify oracle.
        let (naive_run, audit) = run_app(app, &naive, n_sites, true);
        let (site_audit, classify_stats) = audit.expect("audited run");
        let all = classify_stats.all_accesses();
        fig8.push(vec![
            ("app", app.name.into()),
            ("heap", all.class_heap.into()),
            ("stack", all.class_stack.into()),
            ("other", all.class_other.into()),
            ("required", all.class_required.into()),
        ]);
        // Soundness gate: every interprocedural Elide site must be
        // observed captured on all executions, per compilation context.
        for (site, (nv, tv)) in interproc_result
            .normal
            .verdicts
            .iter()
            .zip(&interproc_result.tx.verdicts)
            .enumerate()
        {
            if *nv == txcc::Verdict::Elide {
                assert!(
                    site_audit.normal[site].always_captured(),
                    "{}: site {site} elided (normal) but observed uncaptured",
                    app.name
                );
            }
            if *tv == txcc::Verdict::Elide {
                assert!(
                    site_audit.tx[site].always_captured(),
                    "{}: site {site} elided (tx clone) but observed uncaptured",
                    app.name
                );
            }
        }

        let mut dyn_of = |label: &'static str, compiled: &txcc::CompiledProgram| -> u64 {
            let (run, _) = run_app(app, compiled, n_sites, false);
            assert_eq!(
                run.snapshot, naive_run.snapshot,
                "{}: {label} build diverged from the naive build",
                app.name
            );
            assert!(
                run.tx_ops <= naive_run.tx_ops,
                "{}: {label} executed more barriers than naive",
                app.name
            );
            let elided = naive_run.tx_ops - run.tx_ops;
            configs.push(vec![
                ("app", app.name.into()),
                ("config", label.into()),
                ("static_elided", compiled.stats.elided.into()),
                ("static_barriers", compiled.stats.barriers.into()),
                ("dyn_barrier_ops", run.tx_ops.into()),
                ("dyn_elided_ops", elided.into()),
                (
                    "elision_rate",
                    Cell::Float(share(elided, naive_run.tx_ops), 4),
                ),
            ]);
            elided
        };
        let e_intra = dyn_of("intraprocedural", &intra);
        let e_inline = dyn_of("intraproc+inlining", &inline);
        let e_inter = dyn_of("interprocedural", &inter);
        // Ordering gates.
        assert!(
            e_inter >= e_intra,
            "{}: interproc ({e_inter}) < intraproc ({e_intra})",
            app.name
        );
        assert!(
            e_inter >= e_inline,
            "{}: interproc ({e_inter}) < intraproc+inlining ({e_inline})",
            app.name
        );
        total_intra += e_intra;
        total_inter += e_inter;

        apps.push(vec![
            ("app", app.name.into()),
            ("sites_in_atomic", sites_in_atomic(&prog).into()),
            ("naive_barrier_ops", naive_run.tx_ops.into()),
            ("pattern", app.pattern.into()),
        ]);
    }
    assert!(
        total_inter > total_intra,
        "interprocedural pass must elide strictly more than intraprocedural \
         in aggregate ({total_inter} vs {total_intra})"
    );
    r.tables = vec![apps, configs, fig8];
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_hold_and_report_shapes_up() {
        // report() itself asserts the superset, ordering, soundness and
        // determinism gates — running it IS the acceptance test. Then
        // spot-check the per-app expectations the corpus was designed
        // around.
        let r = report(&ExptOpts::default());
        let [apps, configs, fig8] = &r.tables[..] else {
            panic!("three tables")
        };
        assert_eq!((apps.rows.len(), fig8.rows.len()), (APPS.len(), APPS.len()));
        assert_eq!(configs.rows.len(), 3 * APPS.len());
        let at = |app, config, column| {
            configs
                .value(&[("app", app), ("config", config)], column)
                .unwrap()
        };
        // The guarded-helper apps are interproc-only wins.
        for app in ["genome", "vacation", "intruder", "ssca2", "yada", "bayes"] {
            assert!(
                at(app, "interprocedural", "elision_rate")
                    > at(app, "intraproc+inlining", "elision_rate"),
                "{app}: interproc must beat inlining"
            );
        }
        // The no-opportunity kernels stay at zero in every pipeline.
        for app in ["kmeans", "labyrinth"] {
            for config in ["intraprocedural", "intraproc+inlining", "interprocedural"] {
                assert_eq!(at(app, config, "dyn_elided_ops"), 0.0, "{app}/{config}");
            }
        }
    }
}
