//! Orchestration: which repetitions a workload gets, how their values
//! become end-to-end summaries and per-layer metrics, and the two ways of
//! reporting them — the full `bench run` report and the one-line result
//! the acceptance driver reads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::harness::{default_out_dir, run_child, RepOutcome};
use crate::json::Value;
use crate::micro;
use crate::rep::{sizes, RepSpec, Scale, Values, Variant};
use crate::spec::{end_to_end, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, Summary};

/// Timed repetitions per workload in `bench run` (after one warm-up).
pub const TIMED_REPS: usize = 5;

/// Ops a repetition attempts — known without running it, so a repetition
/// that wedges can still count all its ops as failed.
pub fn ops_expected(workload: Workload, scale: Scale) -> u64 {
    let sz = sizes(scale);
    let threads = workload.spec().threads as u64;
    match workload {
        Workload::PoolLookup => (sz.window * sz.cycles) as u64,
        Workload::VacationHigh => sz.vacation_tasks,
        Workload::TransferShort => threads * sz.transfers as u64,
        _ => threads * sz.pool_ops as u64,
    }
}

pub struct Rep {
    /// The first repetition of a workload: discarded for timing, and the
    /// one that carries the model-replay check.
    pub warmup: bool,
    pub outcome: RepOutcome,
}

/// How many timed repetitions to run.
#[derive(Clone, Copy)]
pub enum Budget {
    Reps(usize),
    /// Until the timed phases measured add up to this many seconds.
    Seconds(f64),
}

pub struct WorkloadRun {
    pub workload: Workload,
    pub scale: Scale,
    pub reps: Vec<Rep>,
}

fn rep_spec(workload: Workload, seed: u64, scale: Scale) -> RepSpec {
    RepSpec {
        workload,
        seed,
        scale,
        variant: Variant::Normal,
        traced: false,
        deep_check: false,
        trace_out: None,
    }
}

/// One warm-up repetition, then timed repetitions up to `budget`. With
/// `stop_on_failure`, a failed repetition ends the workload at once (the
/// acceptance driver's per-run limit leaves no room to watch more wedges).
pub fn measure(
    workload: Workload,
    seed: u64,
    scale: Scale,
    budget: Budget,
    stop_on_failure: bool,
) -> Result<WorkloadRun, String> {
    let mut run = WorkloadRun {
        workload,
        scale,
        reps: Vec::new(),
    };
    let mut timed_s = 0.0;
    loop {
        let warmup = run.reps.is_empty();
        let spec = RepSpec {
            deep_check: warmup,
            ..rep_spec(workload, seed, scale)
        };
        let outcome = run_child(&spec)?;
        let failed = match &outcome {
            RepOutcome::Done { values, .. } => {
                if !warmup {
                    timed_s += values.get("timed_s").copied().unwrap_or(0.0);
                }
                false
            }
            RepOutcome::Failed { reason, .. } => {
                eprintln!(
                    "# {}: repetition {} failed: {reason}",
                    workload.name(),
                    run.reps.len()
                );
                true
            }
        };
        run.reps.push(Rep { warmup, outcome });
        let timed_reps = run.reps.len() - 1;
        let enough = match budget {
            Budget::Reps(n) => timed_reps >= n,
            Budget::Seconds(s) => timed_reps >= 1 && timed_s >= s,
        };
        // A budget in seconds cannot be met by repetitions that fail.
        if enough || (failed && (stop_on_failure || matches!(budget, Budget::Seconds(_)))) {
            return Ok(run);
        }
    }
}

impl WorkloadRun {
    fn done(&self, timed_only: bool) -> impl Iterator<Item = &Values> {
        self.reps.iter().filter_map(move |r| match &r.outcome {
            RepOutcome::Done { values, .. } if !(timed_only && r.warmup) => Some(values),
            _ => None,
        })
    }

    /// Samples of `metric`: set-up time from every completed repetition
    /// (the warm-up sets up like any other), the rest from timed ones.
    fn samples(&self, metric: &str) -> Vec<f64> {
        self.done(metric != "setup_s")
            .filter_map(|v| v.get(metric).copied())
            .collect()
    }

    pub fn wedged_reps(&self) -> usize {
        self.reps
            .iter()
            .filter(|r| matches!(r.outcome, RepOutcome::Failed { wedged: true, .. }))
            .count()
    }

    /// `(attempted, failed)` ops over all repetitions, warm-up included:
    /// its outputs are checked like the others'.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let per_rep = ops_expected(self.workload, self.scale);
        let failed = self
            .reps
            .iter()
            .filter(|r| matches!(r.outcome, RepOutcome::Failed { .. }))
            .count() as u64;
        (per_rep * self.reps.len() as u64, per_rep * failed)
    }

    pub fn failed_share(&self) -> f64 {
        // On the 2-thread pool a wedge is not a rate but a defect: any
        // wedged repetition fails the workload, so the value reads 1.0
        // until the wedge is fixed and 0.0 after.
        if self.workload == Workload::PoolMixed2t && self.wedged_reps() > 0 {
            return 1.0;
        }
        let (attempted, failed) = self.attempted_failed();
        failed as f64 / attempted as f64
    }

    pub fn stream_hash(&self) -> Option<u64> {
        self.reps.iter().find_map(|r| match r.outcome {
            RepOutcome::Done { stream_hash, .. } => Some(stream_hash),
            _ => None,
        })
    }

    pub fn median_of(&self, metric: &str) -> Option<f64> {
        median(&self.samples(metric))
    }

    /// The end-to-end metrics that apply to this workload, summarised.
    pub fn end_to_end(&self) -> Vec<(&'static str, Summary)> {
        END_TO_END
            .iter()
            .filter(|m| (m.bound)(self.workload).is_some())
            .filter_map(|m| {
                let summary = if m.name == "failed_share" {
                    Summary::of(&vec![self.failed_share(); self.reps.len()])
                } else {
                    Summary::of(&self.samples(m.name))
                };
                summary.map(|s| (m.name, s))
            })
            .collect()
    }
}

/// One repetition outside a [`WorkloadRun`]; `None` if it failed.
fn one_rep(spec: &RepSpec, wedged: &mut usize) -> Result<Option<Values>, String> {
    Ok(match run_child(spec)? {
        RepOutcome::Done { values, .. } => Some(values),
        RepOutcome::Failed { reason, wedged: w } => {
            eprintln!(
                "# {}: {} repetition failed: {reason}",
                spec.workload.name(),
                if spec.traced {
                    "traced"
                } else {
                    spec.variant.name()
                }
            );
            *wedged += w as usize;
            None
        }
    })
}

/// Σ (events per op × unit ns) + the fixed cost of a writing transaction:
/// the first outside-in cut of "the layer numbers add up". Reported with
/// its residual against the measured ns per op, not gated.
fn model(traced: &Values, unit: &Values, measured_ns_per_op: f64, out: &mut Values) {
    let g = |m: &Values, k: &str| m.get(k).copied().unwrap_or(0.0);
    let nursery = g(traced, "stm.barrier.nursery_hits_per_op");
    let predicted = g(unit, "stm.worker.rw1_txn_ns")
        + g(traced, "x.reads_full_per_op") * g(unit, "stm.barrier.full_read_ns")
        + g(traced, "x.writes_full_per_op") * g(unit, "stm.barrier.full_write_ns")
        + nursery * g(unit, "stm.barrier.captured_nursery_ns")
        + (g(traced, "stm.barrier.elided_heap_per_op") - nursery).max(0.0)
            * g(unit, "stm.barrier.captured_tree_ns")
        + g(traced, "stm.barrier.elided_stack_per_op") * g(unit, "stm.barrier.captured_stack_ns")
        + g(traced, "stm.txalloc.allocs_per_op") * g(unit, "stm.txalloc.alloc_free_ns");
    out.insert("model.predicted_ns_per_op".into(), predicted);
    out.insert(
        "model.residual_share".into(),
        (measured_ns_per_op - predicted) / measured_ns_per_op,
    );
}

/// The traced pass of one workload: one instrumented repetition, the
/// companion repetitions its cross-arm ratios need, and the unit costs.
/// `run` is the workload's untraced run, the yardstick for the ratios;
/// `plain_pool` is `pool-mixed`'s untraced ops/s if the caller has it (else
/// `pool-durable` measures it with one more repetition).
pub fn traced_pass(
    run: &WorkloadRun,
    seed: u64,
    plain_pool: Option<f64>,
    unit: &Values,
    out_dir: &Path,
) -> Result<Values, String> {
    let (workload, scale) = (run.workload, run.scale);
    let mut wedged = run.wedged_reps();
    let mut out = unit.clone();
    let ops_per_s = |v: &Values| v.get("ops_per_s").copied();
    let untraced = run.median_of("ops_per_s");

    let traced = one_rep(
        &RepSpec {
            traced: true,
            // For `stm.durable.recover_s`.
            deep_check: true,
            trace_out: Some(out_dir.join(format!("trace-{}.json", workload.name()))),
            ..rep_spec(workload, seed, scale)
        },
        &mut wedged,
    )?;
    if let Some(traced) = &traced {
        out.extend(
            traced
                .iter()
                .filter(|(k, _)| PER_LAYER.iter().any(|m| m.0 == k.as_str()))
                .map(|(k, v)| (k.clone(), *v)),
        );
        if let (Some(t), Some(u)) = (ops_per_s(traced), untraced) {
            out.insert("trace.overhead_share".into(), 1.0 - t / u);
        }
        if let (Workload::PoolMixed, Some(u)) = (workload, untraced) {
            model(traced, unit, 1e9 / u, &mut out);
        }
    }
    let mut companion = |spec: RepSpec| -> Result<Option<f64>, String> {
        Ok(one_rep(&spec, &mut wedged)?.as_ref().and_then(ops_per_s))
    };
    let variant = |variant| RepSpec {
        variant,
        ..rep_spec(workload, seed, scale)
    };
    match workload {
        Workload::TransferShort => {
            if let (Some(two), Some(one)) = (untraced, companion(variant(Variant::OneThread))?) {
                out.insert("stm.commit.scale_eff_2t".into(), two / one);
            }
        }
        Workload::VacationHigh => {
            if let (Some(two), Some(one)) = (untraced, companion(variant(Variant::OneThread))?) {
                out.insert("stamp.vacation.scale_eff_2t".into(), two / one);
            }
            if let Some(baseline) = companion(variant(Variant::Baseline))? {
                out.insert("stamp.vacation.baseline_ops_per_s".into(), baseline);
                if let Some(capture) = untraced {
                    out.insert("stm.barrier.capture_speedup".into(), capture / baseline);
                }
            }
        }
        Workload::PoolDurable => {
            let plain = match plain_pool {
                Some(p) => Some(p),
                None => companion(rep_spec(Workload::PoolMixed, seed, scale))?,
            };
            if let (Some(plain), Some(durable)) = (plain, untraced) {
                out.insert("stm.durable.tax".into(), plain / durable);
            }
        }
        _ => {}
    }
    out.insert("stm.contention.wedged_reps".into(), wedged as f64);
    Ok(out)
}

// --- the machine and the run ---------------------------------------------------

fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    if let Some(d) = dir {
        cmd.current_dir(d);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The result header: what must match before two results may be compared
/// (`fingerprint`), and what is recorded beside it.
pub fn header(seed: u64, scale: Scale) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unknown = || "unknown".to_string();
    Value::object([
        (
            "fingerprint",
            Value::object([
                ("nproc", Value::Num(nproc as f64)),
                (
                    "available_parallelism",
                    Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
                ("cpu_model", Value::str(cpu_model)),
                (
                    "rustc",
                    Value::str(command_line("rustc", &["-V"], None).unwrap_or_else(unknown)),
                ),
                (
                    "profile",
                    Value::str(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
                ("seed", Value::str(seed.to_string())),
                ("scale", Value::str(scale.name())),
            ]),
        ),
        (
            "git_rev",
            Value::str(
                command_line("git", &["rev-parse", "--short", "HEAD"], Some(manifest_dir))
                    .unwrap_or_else(unknown),
            ),
        ),
        (
            "threads",
            Value::object(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name, Value::Num(w.threads as f64))),
            ),
        ),
    ])
}

pub struct RunOpts {
    pub seed: u64,
    pub scale: Scale,
    pub traced: bool,
    pub workloads: Vec<Workload>,
    pub out: PathBuf,
}

fn print_header(h: &Value) {
    let f = h.get("fingerprint").expect("header has a fingerprint");
    let s = |v: &Value, k: &str| match v.get(k) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(n)) => n.to_string(),
        _ => "?".into(),
    };
    println!(
        "# bench run: seed {}, scale {}, {} build, git {}",
        s(f, "seed"),
        s(f, "scale"),
        s(f, "profile"),
        s(h, "git_rev")
    );
    println!(
        "# machine: nproc {}, available_parallelism {}, cpu {:?}, {}",
        s(f, "nproc"),
        s(f, "available_parallelism"),
        s(f, "cpu_model"),
        s(f, "rustc")
    );
}

/// `bench run`: every workload untraced, then (with `--traced`) one traced
/// pass each; prints the report and writes it as JSON. A repetition that
/// fails lands in `failed_share`; only a harness error is an `Err`.
pub fn run_all(opts: &RunOpts) -> Result<(), String> {
    let started = Instant::now();
    let head = header(opts.seed, opts.scale);
    print_header(&head);
    let mut runs = Vec::new();
    let mut workloads_json = Vec::new();
    for &w in &opts.workloads {
        // At full size a workload's later repetitions run even after one
        // failed: how often it wedges is a finding. A smoke run is for CI
        // and moves on.
        let stop_on_failure = opts.scale == Scale::Smoke;
        let run = measure(
            w,
            opts.seed,
            opts.scale,
            Budget::Reps(TIMED_REPS),
            stop_on_failure,
        )?;
        let (attempted, failed) = run.attempted_failed();
        println!(
            "\n## {} ({} thread{}) — stream {}, {} timed repetitions, {} of {} ops failed",
            w.name(),
            w.spec().threads,
            if w.spec().threads == 1 { "" } else { "s" },
            run.stream_hash()
                .map_or("unknown".into(), |h| format!("{h:016x}")),
            run.reps.len() - 1,
            failed,
            attempted
        );
        println!(
            "{:<18} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "q1", "q3", "min", "max", "n"
        );
        let e2e = run.end_to_end();
        for (name, s) in &e2e {
            println!(
                "{:<18} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>3}",
                name,
                end_to_end(name).map_or("", |m| m.unit),
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n
            );
        }
        workloads_json.push((
            w.name(),
            vec![
                ("threads", Value::Num(w.spec().threads as f64)),
                (
                    "stream_hash",
                    run.stream_hash()
                        .map_or(Value::Null, |h| Value::str(format!("{h:016x}"))),
                ),
                ("attempted", Value::Num(attempted as f64)),
                ("failed", Value::Num(failed as f64)),
                ("wedged_reps", Value::Num(run.wedged_reps() as f64)),
                (
                    "end_to_end",
                    Value::object(e2e.into_iter().map(|(n, s)| (n, s.to_json()))),
                ),
            ],
        ));
        runs.push(run);
    }
    if opts.traced {
        println!("\n# traced pass: one instrumented repetition per workload, plus unit costs");
        let unit = micro::run(opts.scale);
        let plain_pool = runs
            .iter()
            .find(|r| r.workload == Workload::PoolMixed)
            .and_then(|r| r.median_of("ops_per_s"));
        for (run, (_, fields)) in runs.iter().zip(&mut workloads_json) {
            let layers = traced_pass(run, opts.seed, plain_pool, &unit, &default_out_dir())?;
            println!("\n## {} — per layer", run.workload.name());
            for (name, unit, _) in PER_LAYER {
                if let Some(v) = layers.get(*name) {
                    println!("{name:<46} {unit:>8} {v:>16.4}");
                }
            }
            fields.push((
                "per_layer",
                Value::object(
                    PER_LAYER
                        .iter()
                        .filter_map(|m| layers.get(m.0).map(|v| (m.0, Value::Num(*v)))),
                ),
            ));
        }
    }
    let doc = Value::object([
        ("header", head),
        (
            "workloads",
            Value::object(
                workloads_json
                    .into_iter()
                    .map(|(name, fields)| (name, Value::object(fields))),
            ),
        ),
    ]);
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, doc.render_pretty())
        .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    println!(
        "\n# wrote {} after {:.1} s",
        opts.out.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

// --- the acceptance driver's entry ------------------------------------------------

/// `--workload W --seed N --seconds S --trace 0|1`: measure one workload
/// for about `seconds` seconds of timed phase and print, as the last line
/// of stdout, one JSON object with `correct`, `attempted`, `failed` and
/// `metrics` — every `BENCHMARK.json` end-to-end metric with `--trace 0`,
/// every per-layer metric with `--trace 1`.
pub fn drive(
    workload: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    trace: bool,
) -> Result<(), String> {
    if !workload.spec().in_driver {
        return Err(format!(
            "{} is not one of BENCHMARK.json's workloads; use `bench run --workload {0}`",
            workload.name()
        ));
    }
    let budget = if trace {
        // The traced pass needs the untraced ops/s only as a yardstick.
        Budget::Reps(1)
    } else {
        Budget::Seconds(seconds)
    };
    let run = measure(workload, seed, scale, budget, true)?;
    let (attempted, failed) = run.attempted_failed();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut complete = true;
    if trace {
        let layers = traced_pass(&run, seed, None, &micro::run(scale), &default_out_dir())?;
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, layers.get(*name).copied().unwrap_or(0.0), unit));
        }
        complete = layers.contains_key("trace.spans");
    } else {
        for m in END_TO_END.iter().filter(|m| m.driver_bound.is_some()) {
            match run.median_of(m.name) {
                Some(v) => metrics.push((m.name, v, m.unit)),
                None => complete = false,
            }
        }
    }
    if !complete {
        // No result line: every listed metric is owed, and a repetition
        // that never completed has none to give.
        return Err(format!(
            "{}: {failed} of {attempted} ops failed and left metrics unmeasured",
            workload.name()
        ));
    }
    let doc = Value::object([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::object(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Value::object([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", doc.render());
    Ok(())
}
