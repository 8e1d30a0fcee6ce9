//! Experiment driver: regenerates every table and figure of the paper,
//! plus the dispatch-refactor microbenchmark, the thread-scaling
//! experiment, and their JSON reports.
//!
//! ```text
//! expt <fig8|fig9|fig10|fig11a|fig11b|table1|table2|annotations|orec|check|all>
//!      [--scale test|small|full] [--threads N] [--runs K]
//! expt elision [--out FILE]      # static-elision comparison (intraproc vs
//!                                # intraproc+inlining vs interprocedural)
//!                                # over STAMP-representative TL programs;
//!                                # enforces the superset/ordering/oracle
//!                                # gates and writes BENCH_elision.json
//!                                # with --out
//! expt barriers [--max-ratio F] [--max-typed-ratio F] [--max-ranged-ratio F]
//!                                # barrier_dispatch microbenchmark (Markdown);
//!                                # exits 1 if captured/direct ratio exceeds
//!                                # --max-ratio, if the typed-layer row
//!                                # exceeds --max-typed-ratio x the raw tree
//!                                # row (the ISSUE-5 zero-cost gate;
//!                                # release acceptance bar 1.10), or if the
//!                                # ranged captured span-64 row exceeds
//!                                # --max-ranged-ratio x the per-word tree
//!                                # row (the ISSUE-6 bulk-copy gate; release
//!                                # acceptance bar 0.25 = ≥4x faster per
//!                                # word; skipped on debug builds)
//! expt bench-json [--out FILE] [--benchmarks a,b] [--max-nursery-ratio F]
//!                                # BENCH_barriers.json emitter.
//!                                # --benchmarks restricts the STAMP rows to a
//!                                # comma-separated subset (CI smoke runs only
//!                                # vacation+intruder); --max-nursery-ratio
//!                                # gates `captured heap hit/nursery` vs
//!                                # `direct` (release builds only — debug
//!                                # timings are meaningless and skip with a
//!                                # note)
//! expt nursery [--benchmarks a,b]
//!                                # nursery-on vs nursery-off across STAMP
//!                                # (runtime-tree fallback), with scalar-hit
//!                                # share and region telemetry
//! expt scaling [--out FILE] [--min-speedup F]
//!                                # STAMP at 1/2/4/8 threads x {baseline,
//!                                # runtime-tree, compiler}; Markdown to
//!                                # stdout, BENCH_scaling.json with --out.
//!                                # --min-speedup gates vacation-low
//!                                # runtime-tree at 4 threads (skipped on
//!                                # hardware with <4 threads).
//! expt merge [--out FILE] [--merge N] [--min-merge-speedup F]
//!                                # transaction-merging experiment: logical
//!                                # throughput + abort rate at merge
//!                                # factors 1/2/8/32 over the transfer,
//!                                # queue, and intruder drivers; Markdown
//!                                # to stdout, BENCH_merge.json with
//!                                # --out. --merge N narrows the factor
//!                                # axis to {1, N} (rejected for 0 or
//!                                # above stm::MERGE_MAX_LIMIT);
//!                                # --min-merge-speedup gates the transfer
//!                                # driver at factor 8 (or at N when
//!                                # --merge is given; release acceptance
//!                                # bar 1.5 — debug builds skip with a
//!                                # note, their fixed costs are distorted)
//! expt durability [--out FILE] [--max-durability-tax F]
//!                                # durable redo-log commit tax: shared-heavy
//!                                # vs captured-heavy drivers at durability
//!                                # off / strict / group-commit, with the
//!                                # captured skip ratio; Markdown to stdout,
//!                                # BENCH_durability.json with --out.
//!                                # --max-durability-tax gates the captured
//!                                # driver's strict row against its own
//!                                # transient row (release acceptance bar
//!                                # 4.0, the row measures 2.0 at 2 threads
//!                                # — transient captured commits are
//!                                # nearly free, so the ratio is large by
//!                                # construction; CI smoke uses a loose
//!                                # bound — debug builds skip with a note,
//!                                # their encoder costs are distorted)
//! expt pool [--out FILE] [--ops N] [--budget BYTES] [--theta F] [--seed N]
//!           [--merge N] [--durable] [--min-pool-throughput F]
//!                                # multi-index transactional memory pool
//!                                # (crates/pool) under a zipf(θ)-skewed
//!                                # mempool op mix: inserts with eviction,
//!                                # pop-best drain, removals, repricings,
//!                                # sender purges, duplicate resubmissions.
//!                                # --ops overrides the scale default
//!                                # (20k/200k/1M); --budget sets the pool's
//!                                # live-byte budget; --seed picks the op
//!                                # streams (pre-drawn before the clock
//!                                # starts; default 1); --merge N adds a
//!                                # txn_batch arm; --durable adds a redo-log
//!                                # arm. Markdown to stdout, BENCH_pool.json
//!                                # with --out. --min-pool-throughput gates
//!                                # the plain arm's committed ops/s (debug
//!                                # builds skip with a note)
//! ```
//!
//! Output is Markdown, mirroring the paper's rows/series; see EXPERIMENTS.md
//! for an archived run with paper-vs-measured commentary.

use bench_support as bench;
use stamp::Scale;
use stm::TxObject;

fn usage() -> ! {
    eprintln!(
        "usage: expt <fig8|fig9|fig10|fig11a|fig11b|table1|table2|annotations|orec|check|\
         barriers|bench-json|scaling|merge|elision|nursery|durability|pool|all> \
         [--scale test|small|full] [--threads N] [--runs K] [--out FILE] [--max-ratio F] \
         [--max-typed-ratio F] [--max-ranged-ratio F] [--min-speedup F] [--benchmarks a,b] \
         [--max-nursery-ratio F] [--merge N] [--min-merge-speedup F] [--max-durability-tax F] \
         [--ops N] [--budget BYTES] [--theta F] [--seed N] [--durable] \
         [--min-pool-throughput F]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("expt: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args[0].as_str();
    let mut opts = bench::ExptOpts::default();
    let mut out_path: Option<String> = None;
    let mut max_ratio: Option<f64> = None;
    let mut max_typed_ratio: Option<f64> = None;
    let mut max_ranged_ratio: Option<f64> = None;
    let mut min_speedup: Option<f64> = None;
    let mut max_nursery_ratio: Option<f64> = None;
    let mut merge_factor: Option<usize> = None;
    let mut min_merge_speedup: Option<f64> = None;
    let mut max_durability_tax: Option<f64> = None;
    let mut benchmarks: Option<Vec<stamp::Benchmark>> = None;
    let mut pool_ops: Option<u64> = None;
    let mut pool_budget: Option<u64> = None;
    let mut pool_theta: Option<f64> = None;
    let mut pool_seed: Option<u64> = None;
    let mut pool_durable = false;
    let mut min_pool_throughput: Option<f64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--max-ratio" => {
                i += 1;
                max_ratio = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-typed-ratio" => {
                i += 1;
                max_typed_ratio = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-ranged-ratio" => {
                i += 1;
                max_ranged_ratio = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-nursery-ratio" => {
                i += 1;
                max_nursery_ratio = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--benchmarks" => {
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| usage());
                benchmarks =
                    Some(bench::report::parse_benchmark_filter(&spec).unwrap_or_else(|e| fail(&e)));
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--merge" => {
                i += 1;
                merge_factor = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--min-merge-speedup" => {
                i += 1;
                min_merge_speedup = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-durability-tax" => {
                i += 1;
                max_durability_tax = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--ops" => {
                i += 1;
                pool_ops = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--budget" => {
                i += 1;
                pool_budget = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--theta" => {
                i += 1;
                pool_theta = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => {
                i += 1;
                pool_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--durable" => {
                pool_durable = true;
            }
            "--min-pool-throughput" => {
                i += 1;
                min_pool_throughput = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(|s| s.as_str()) {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    _ => usage(),
                };
            }
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--runs" => {
                i += 1;
                opts.runs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    // Validate up front: zero threads divides work by zero, zero runs has
    // no median, and absurd thread counts would balloon every benchmark's
    // simulated address space (one stack region per thread).
    if opts.threads == 0 {
        fail("--threads must be at least 1");
    }
    if opts.threads > stamp::MAX_THREADS {
        fail(&format!(
            "--threads {} exceeds the supported maximum of {} worker stack regions",
            opts.threads,
            stamp::MAX_THREADS
        ));
    }
    if opts.runs == 0 {
        fail("--runs must be at least 1 (timings report the median run)");
    }
    if let Some(n) = merge_factor {
        // Reject factors the runtime's own config validation would reject:
        // a zero-wide batch is meaningless and anything above
        // MERGE_MAX_LIMIT would fail TxConfig::builder deep in the driver.
        if n == 0 {
            fail("--merge must be at least 1 (1 = unmerged baseline)");
        }
        if n > stm::MERGE_MAX_LIMIT as usize {
            fail(&format!(
                "--merge {n} exceeds the supported maximum merge_max of {}",
                stm::MERGE_MAX_LIMIT
            ));
        }
    }

    // Pool-flag validation mirrors the library's PoolConfig::validate but
    // fails at the CLI boundary with actionable messages instead of a
    // panic deep inside a worker thread.
    if pool_ops == Some(0) {
        fail("--ops must be at least 1 (omit it for the scale default)");
    }
    if let Some(b) = pool_budget {
        if b < pool::Item::BYTES {
            fail(&format!(
                "--budget {b} cannot hold a single pool item ({} bytes minimum)",
                pool::Item::BYTES
            ));
        }
    }
    if let Some(t) = pool_theta {
        if !t.is_finite() || !(0.0..=4.0).contains(&t) {
            fail("--theta must be a finite zipf exponent in 0.0..=4.0");
        }
    }

    eprintln!(
        "# expt {cmd} (scale {:?}, {} threads, {} runs)",
        opts.scale, opts.threads, opts.runs
    );
    let t0 = std::time::Instant::now();
    match cmd {
        "fig8" => print!("{}", bench::fig8(&opts)),
        "fig9" => print!("{}", bench::fig9(&opts)),
        "fig10" => print!("{}", bench::fig10(&opts)),
        "fig11a" => print!("{}", bench::fig11a(&opts)),
        "fig11b" => print!("{}", bench::fig11b(&opts)),
        "table1" => print!("{}", bench::table1(&opts)),
        "table2" => print!("{}", bench::table2(&opts)),
        "annotations" => print!("{}", bench::annotations(&opts)),
        "orec" => print!("{}", bench::orec_ablation(&opts)),
        "barriers" => {
            let micro_opts = bench::micro::MicroOpts::default();
            let results = bench::micro::barrier_dispatch(&micro_opts);
            print!("{}", bench::micro::render_markdown(&results, &micro_opts));
            if let Some(max) = max_ratio {
                // Regression gate (CI): the monomorphized captured-heap
                // fast path must stay within `max` of the raw-access
                // floor. Pass a loose bound — single-run ratios wobble.
                let ratio = bench::micro::fastpath_ratio(&results)
                    .expect("pin measurements missing from results");
                if ratio > max {
                    eprintln!("# FAIL: fast-path ratio {ratio:.2} exceeds --max-ratio {max:.2}");
                    std::process::exit(1);
                }
                eprintln!("# fast-path ratio {ratio:.2} within --max-ratio {max:.2}");
            }
            if let Some(max) = max_typed_ratio {
                // Regression gate (CI): the typed object layer must stay
                // zero-cost — its captured-heap row is the same workload
                // as the raw tree row through `read_field`-family entry
                // points, so any real gap means the typed wrappers stopped
                // inlining down to the word barriers.
                let ratio = bench::micro::typed_ratio(&results)
                    .expect("typed pin measurements missing from results");
                if ratio > max {
                    eprintln!(
                        "# FAIL: typed/raw ratio {ratio:.2} exceeds --max-typed-ratio {max:.2}"
                    );
                    std::process::exit(1);
                }
                eprintln!("# typed/raw ratio {ratio:.2} within --max-typed-ratio {max:.2}");
            }
            if let Some(max) = max_ranged_ratio {
                // Release gate (ISSUE 6): a 64-word captured span must cost
                // at most `max` of the per-word captured hit per word —
                // classify-once + bulk copy vs one classification per word.
                // Debug timings are meaningless; skip with a note there.
                if cfg!(debug_assertions) {
                    eprintln!("# ranged ratio gate skipped: debug build");
                } else {
                    let ratio = bench::micro::ranged_ratio(&results)
                        .expect("ranged pin measurements missing from results");
                    if ratio > max {
                        eprintln!(
                            "# FAIL: ranged/per-word ratio {ratio:.2} exceeds \
                             --max-ranged-ratio {max:.2}"
                        );
                        std::process::exit(1);
                    }
                    eprintln!(
                        "# ranged/per-word ratio {ratio:.2} within --max-ranged-ratio {max:.2}"
                    );
                }
            }
        }
        "bench-json" => {
            let micro = bench::micro::MicroOpts::default();
            let results = bench::micro::barrier_dispatch(&micro);
            let json = bench::report::bench_json_from(&opts, &results, benchmarks.as_deref());
            let path = out_path.as_deref().unwrap_or("BENCH_barriers.json");
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("# wrote {path}");
            if let Some(max) = max_nursery_ratio {
                // Regression gate (CI): the nursery's two-compare captured
                // heap hit must stay within `max` of the raw-access floor.
                // Debug timings are meaningless; skip with a note there.
                if cfg!(debug_assertions) {
                    eprintln!("# nursery ratio gate skipped: debug build");
                } else {
                    let ratio = bench::micro::nursery_ratio(&results)
                        .expect("nursery pin missing from results");
                    if ratio > max {
                        eprintln!(
                            "# FAIL: nursery ratio {ratio:.2} exceeds \
                             --max-nursery-ratio {max:.2}"
                        );
                        std::process::exit(1);
                    }
                    eprintln!("# nursery ratio {ratio:.2} within --max-nursery-ratio {max:.2}");
                }
            }
        }
        "nursery" => {
            let rows = bench::nursery::nursery_rows(&opts, benchmarks.as_deref());
            print!("{}", bench::nursery::render_markdown(&opts, &rows));
        }
        "scaling" => {
            let rows = bench::scaling::scaling_rows(&opts);
            print!("{}", bench::scaling::render_markdown(&opts, &rows));
            if let Some(path) = out_path.as_deref() {
                let json = bench::scaling::scaling_json(&opts, &rows);
                std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("# wrote {path}");
            }
            if let Some(min) = min_speedup {
                // Regression gate (CI): the allocation-heavy captured
                // workload must keep scaling once the serialization points
                // are sharded. Skipped (with a note) when the hardware
                // cannot physically run 4 threads at once.
                match bench::scaling::speedup_gate(&rows, "vacation low", "runtime-tree", 4, min) {
                    Ok(Some(s)) => {
                        eprintln!("# vacation-low runtime-tree 4t speedup {s:.2}x >= {min:.2}x")
                    }
                    Ok(None) => eprintln!(
                        "# speedup gate skipped: only {} hardware thread(s) available",
                        bench::scaling::available_parallelism()
                    ),
                    Err(msg) => {
                        eprintln!("# FAIL: {msg}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "merge" => {
            // --merge N narrows the factor axis to {1, N} (factor 1 stays:
            // it seeds the speedup baseline); default is the full sweep.
            let factors: Vec<usize> = match merge_factor {
                Some(1) | None => bench::merge::FACTORS.to_vec(),
                Some(n) => vec![1, n],
            };
            let rows = bench::merge::merge_rows(&opts, &factors);
            print!("{}", bench::merge::render_markdown(&opts, &factors, &rows));
            if let Some(path) = out_path.as_deref() {
                let json = bench::merge::merge_json(&opts, &factors, &rows);
                std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("# wrote {path}");
            }
            if let Some(min) = min_merge_speedup {
                // Release gate (ISSUE 7): merging must amortize commit
                // costs — the transfer driver at factor 8 (or the custom
                // --merge factor) has to beat its own unmerged row. Debug
                // fixed costs are distorted; skip with a note there.
                if cfg!(debug_assertions) {
                    eprintln!("# merge speedup gate skipped: debug build");
                } else {
                    let gate_factor = match merge_factor {
                        Some(n) if n > 1 => n,
                        _ => 8,
                    };
                    match bench::merge::merge_speedup_gate(&rows, "transfer", gate_factor, min) {
                        Ok(s) => eprintln!(
                            "# transfer merge-factor-{gate_factor} speedup {s:.2}x >= {min:.2}x"
                        ),
                        Err(msg) => {
                            eprintln!("# FAIL: {msg}");
                            std::process::exit(1);
                        }
                    }
                }
            }
        }
        "durability" => {
            let rows = bench::durability::durability_rows(&opts);
            print!("{}", bench::durability::render_markdown(&opts, &rows));
            if let Some(path) = out_path.as_deref() {
                let json = bench::durability::durability_json(&opts, &rows);
                std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("# wrote {path}");
            }
            if let Some(max) = max_durability_tax {
                // Release gate (ISSUE 8): the captured-heavy driver's
                // strict durable row must stay within `max` of its own
                // transient row — the coalesced-range encoder and the
                // capture skip are what keep the tax bounded. Debug
                // encoder costs are distorted; skip with a note there.
                if cfg!(debug_assertions) {
                    eprintln!("# durability tax gate skipped: debug build");
                } else {
                    match bench::durability::durability_tax_gate(&rows, "captured", "strict", max) {
                        Ok(t) => eprintln!("# captured strict durability tax {t:.2}x <= {max:.2}x"),
                        Err(msg) => {
                            eprintln!("# FAIL: {msg}");
                            std::process::exit(1);
                        }
                    }
                }
            }
        }
        "pool" => {
            let mut popts = bench::pool::PoolOpts::default();
            if let Some(n) = pool_ops {
                popts.ops = n;
            }
            if let Some(b) = pool_budget {
                popts.budget = b;
            }
            if let Some(t) = pool_theta {
                popts.theta = t;
            }
            if let Some(n) = merge_factor {
                popts.merge = n;
            }
            if let Some(seed) = pool_seed {
                popts.seed = seed;
            }
            popts.durable = pool_durable;
            let rows = bench::pool::pool_rows(&opts, &popts);
            print!("{}", bench::pool::render_markdown(&opts, &popts, &rows));
            if let Some(path) = out_path.as_deref() {
                let json = bench::pool::pool_json(&opts, &popts, &rows);
                std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("# wrote {path}");
            }
            if let Some(min) = min_pool_throughput {
                // Release gate (ISSUE 10): the pool's plain arm must
                // sustain the committed-op throughput bar. Debug timings
                // are meaningless; skip with a note there.
                if cfg!(debug_assertions) {
                    eprintln!("# pool throughput gate skipped: debug build");
                } else {
                    match bench::pool::pool_throughput_gate(&rows, min) {
                        Ok(t) => eprintln!("# pool plain-arm throughput {t:.0} ops/s >= {min:.0}"),
                        Err(msg) => {
                            eprintln!("# FAIL: {msg}");
                            std::process::exit(1);
                        }
                    }
                }
            }
        }
        "elision" => {
            // The report function enforces the superset / ordering /
            // vm-oracle gates itself (panics on violation), so running
            // this subcommand is the acceptance check.
            let reports = bench::elision::elision_report();
            print!("{}", bench::elision::render_markdown(&reports));
            if let Some(path) = out_path.as_deref() {
                let json = bench::elision::elision_json(&reports);
                std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("# wrote {path}");
            }
        }
        "check" => {
            for r in bench::check(opts.scale, opts.threads) {
                println!(
                    "{:<14} {:>10} commits  {:>8} aborts  {}  verified={}  \
                     ranged r/w/spans/fallbacks={}/{}/{}/{}  \
                     cm waits/karma/serial/att_max={}/{}/{}/{}",
                    r.benchmark,
                    r.stats.commits,
                    r.stats.aborts,
                    bench::fmt_dur(r.elapsed),
                    r.verified,
                    r.stats.ranged_reads,
                    r.stats.ranged_writes,
                    r.stats.ranged_spans,
                    r.stats.ranged_fallbacks,
                    r.stats.backoff_waits,
                    r.stats.cm_karma_escalations,
                    r.stats.cm_serializations,
                    r.stats.attempts_max
                );
            }
        }
        "all" => {
            print!("{}", bench::fig8(&opts));
            print!("{}", bench::fig9(&opts));
            print!("{}", bench::fig10(&opts));
            print!("{}", bench::fig11a(&opts));
            print!("{}", bench::fig11b(&opts));
            print!("{}", bench::table1(&opts));
            print!("{}", bench::table2(&opts));
            print!("{}", bench::annotations(&opts));
            print!("{}", bench::orec_ablation(&opts));
        }
        _ => usage(),
    }
    eprintln!("# done in {}", bench::fmt_dur(t0.elapsed()));
}
