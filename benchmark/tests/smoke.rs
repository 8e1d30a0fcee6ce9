//! Drives the built `bench` binary the way people, CI and the acceptance
//! driver do, on the tiny `--smoke` sizes where the entry point allows it.

use std::path::PathBuf;
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BENCH)
        .args(args)
        .output()
        .expect("bench starts");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Names under `"<key>": {` of a pretty-printed result, by indentation —
/// enough to check the report's shape without a JSON crate.
fn keys_at(doc: &str, indent: usize) -> Vec<String> {
    let prefix = " ".repeat(indent) + "\"";
    doc.lines()
        .filter(|l| l.starts_with(&prefix))
        .filter_map(|l| l[indent + 1..].split('"').next().map(String::from))
        .collect()
}

#[test]
fn smoke_run_checks_everything_quickly_and_compares_with_itself() {
    let out = scratch("smoke-run.json");
    let started = std::time::Instant::now();
    let (code, stdout, stderr) =
        run(&["run", "--smoke", "--traced", "--out", out.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        started.elapsed().as_secs() < 10,
        "smoke run took {:?}",
        started.elapsed()
    );
    let doc = std::fs::read_to_string(&out).unwrap();
    assert_eq!(keys_at(&doc, 2), ["header", "workloads"]);
    assert_eq!(
        keys_at(&doc, 4),
        [
            "fingerprint",
            "git_rev",
            "threads",
            "pool-mixed",
            "pool-lookup",
            "pool-durable",
            "pool-mixed-2t",
            "vacation-high",
            "transfer-short"
        ]
    );
    for metric in [
        "ops_per_s",
        "op_p50_ns",
        "op_p99_ns",
        "failed_share",
        "log_bytes_per_op",
        "space_amp",
        "setup_s",
    ] {
        assert!(stdout.contains(metric), "{metric} not printed:\n{stdout}");
    }
    for layer in [
        "pool.ops.insert_ns_p50",
        "stm.worker.txn_self_ns",
        "stm.durable.tax",
        "model.residual_share",
        "trace.overhead_share",
        "stamp.vacation.scale_eff_2t",
    ] {
        assert!(stdout.contains(layer), "{layer} not printed:\n{stdout}");
    }
    // Every workload completed and verified — except that `pool-mixed-2t`
    // may fail (it wedges at the seed commit, even at this size). Then the
    // harness must have survived it, the workload must read as failed, and
    // the workloads after it must have run all the same (asserted above).
    let failures: Vec<&str> = stderr.lines().filter(|l| l.contains("failed")).collect();
    for line in &failures {
        assert!(
            line.starts_with("# pool-mixed-2t:"),
            "unexpected failure: {line}"
        );
    }
    let two_thread_pool =
        &doc[doc.rfind("\"pool-mixed-2t\"").unwrap()..doc.rfind("\"vacation-high\"").unwrap()];
    let failed_share = &two_thread_pool[two_thread_pool.find("\"failed_share\"").unwrap()..];
    // Only the untraced repetitions count towards `failed_share`: 1.0 after
    // a wedge, the failed ops' share after a panic or a failed check.
    let untraced_failure = failures.iter().any(|l| l.contains(": repetition "));
    assert_eq!(
        failed_share.contains("\"median\": 0,"),
        !untraced_failure,
        "failures {failures:?} but {failed_share}"
    );

    // A result never regresses against itself, and compare reads what run
    // wrote.
    let path = out.to_str().unwrap();
    let (code, report, stderr) = run(&["compare", path, path]);
    assert_eq!(code, 0, "{report}\n{stderr}");
    assert!(report.contains("pool-durable") && report.contains("log_bytes_per_op"));
    assert!(!report.contains("REGRESSION"));
}

#[test]
fn compare_refuses_a_result_from_another_seed() {
    let (a, b) = (scratch("seed1.json"), scratch("seed2.json"));
    for (seed, out) in [("1", &a), ("2", &b)] {
        let (code, _, stderr) = run(&[
            "run",
            "--smoke",
            "--workload",
            "pool-lookup",
            "--seed",
            seed,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stderr}");
    }
    let (code, _, stderr) = run(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_ne!(code, 0);
    assert!(stderr.contains("different fingerprints"), "{stderr}");
}

#[test]
fn same_seed_same_stream_hash_in_the_report() {
    let hash_of = |seed: &str| {
        let (code, stdout, stderr) = run(&[
            "run",
            "--smoke",
            "--workload",
            "transfer-short",
            "--seed",
            seed,
            "--out",
            scratch(&format!("hash-{seed}.json")).to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stderr}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("## transfer-short"))
            .unwrap()
            .to_string();
        line.split("stream ").nth(1).unwrap()[..16].to_string()
    };
    assert_eq!(hash_of("5"), hash_of("5"));
    assert_ne!(hash_of("5"), hash_of("6"));
}

/// The `"name"` values of one top-level list of BENCHMARK.json.
fn benchmark_json_names(section: &str) -> Vec<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let start = doc
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let list = &doc[start..start + doc[start..].find(']').unwrap()];
    list.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_string())
        .collect()
}

#[test]
fn driver_entry_emits_exactly_the_benchmark_json_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        for workload in benchmark_json_names("workloads") {
            let (code, stdout, stderr) = run(&[
                "--workload",
                &workload,
                "--seed",
                "3",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert_eq!(code, 0, "{workload} trace {trace}: {stderr}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":")
                    && line.contains("\"failed\":0,"),
                "{line}"
            );
            let want = benchmark_json_names(section);
            for name in &want {
                assert!(
                    line.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload}: no {name} in {line}"
                );
            }
            assert_eq!(
                line.matches("\"value\":").count(),
                want.len(),
                "{workload}: extra metrics in {line}"
            );
            if trace == "0" {
                assert!(
                    !line.contains("\"value\":0,"),
                    "{workload}: a zero end-to-end metric in {line}"
                );
            }
        }
    }
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &["frobnicate"][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "pool-mixed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &[
            "--workload",
            "pool-mixed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &["compare", "only-one.json"],
        &["run", "--smoke", "--bogus"],
    ] {
        let (code, stdout, _) = run(args);
        assert_ne!(code, 0, "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
