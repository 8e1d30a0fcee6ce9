//! The parent side of a repetition: every repetition runs in a child
//! process (`bench` re-executing itself as `bench rep ..`), watched by a
//! watchdog, so a transaction that wedges — both cores spinning, no
//! progress — costs one failed repetition and never the run.
//!
//! The child talks over its stdout, one line per message:
//! `hb <phase> <ops done>` a few times a second, then `result <json>`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::rep::{self, RepSpec, Values, PHASE, PHASE_TIMED, PROGRESS};

/// A timed phase whose op counters stand still this long is wedged.
const STALL: Duration = Duration::from_secs(2);
/// A repetition may take this many times its expected duration...
const DEADLINE_FACTOR: f64 = 10.0;
/// ...but never longer than this, so that even a run that ends in a
/// wedge stays inside the acceptance driver's per-run limit.
const DEADLINE_CAP: Duration = Duration::from_secs(90);
const HEARTBEAT: Duration = Duration::from_millis(200);

pub enum RepOutcome {
    Done {
        values: Values,
        stream_hash: u64,
    },
    /// The repetition did not complete and verify: it wedged (killed by
    /// the watchdog), panicked, or failed one of its checks.
    Failed {
        reason: String,
        wedged: bool,
    },
}

fn spec_args(spec: &RepSpec) -> Vec<String> {
    let mut args = vec![
        "rep".to_string(),
        "--workload".into(),
        spec.workload.name().into(),
        "--seed".into(),
        spec.seed.to_string(),
        "--scale".into(),
        spec.scale.name().into(),
        "--variant".into(),
        spec.variant.name().into(),
    ];
    if spec.traced {
        args.push("--traced".into());
    }
    if spec.deep_check {
        args.push("--deep-check".into());
    }
    if let Some(p) = &spec.trace_out {
        args.push("--trace-out".into());
        args.push(p.display().to_string());
    }
    args
}

/// Run one repetition in a child process under the watchdog. `Err` is a
/// harness error (the child could not be started or spoke nonsense) and
/// ends the whole run; a repetition that merely fails is `Ok(Failed)`.
pub fn run_child(spec: &RepSpec) -> Result<RepOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(&exe)
        .args(spec_args(spec))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let wspec = spec.workload.spec();
    let deadline = Duration::from_secs_f64(wspec.expected_s * DEADLINE_FACTOR).min(DEADLINE_CAP);
    let started = Instant::now();
    // While the child is in its timed phase: the op count last heard and
    // when it was first heard.
    let mut standing: Option<(u64, Instant)> = None;
    let mut result: Option<Value> = None;
    let mut wedge: Option<String> = None;
    // A child that talks nonsense is a harness error, but it is still
    // stopped and reaped before the error is returned.
    let mut nonsense: Option<String> = None;
    loop {
        match rx.recv_timeout(HEARTBEAT / 2) {
            Ok(line) => {
                if let Some(doc) = line.strip_prefix("result ") {
                    match json::parse(doc) {
                        Ok(v) => result = Some(v),
                        Err(e) => nonsense = Some(format!("child result: {e}")),
                    }
                } else if let Some(hb) = line.strip_prefix("hb ") {
                    let mut nums = hb.split(' ').map(str::parse::<u64>);
                    match (nums.next(), nums.next()) {
                        (Some(Ok(phase)), Some(Ok(_))) if phase != PHASE_TIMED => standing = None,
                        (Some(Ok(_)), Some(Ok(done))) => {
                            if standing.is_none_or(|(at, _)| at != done) {
                                standing = Some((done, Instant::now()));
                            }
                        }
                        _ => nonsense = Some(format!("child heartbeat unreadable: {line:?}")),
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        match standing {
            Some((at, since)) if wspec.reports_progress && since.elapsed() >= STALL => {
                wedge = Some(format!(
                    "no progress for {STALL:?} at op {at} of the timed phase"
                ));
            }
            _ if started.elapsed() >= deadline => {
                wedge = Some(format!("still running after its {deadline:?} deadline"));
            }
            _ => {}
        }
        if wedge.is_some() || nonsense.is_some() {
            // Harmless if the child exited in the meantime.
            let _ = child.kill();
            break;
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the child: {e}"))?;
    reader.join().expect("stdout reader panicked");

    if let Some(e) = nonsense {
        return Err(e);
    }
    if let Some(reason) = wedge {
        return Ok(RepOutcome::Failed {
            reason,
            wedged: true,
        });
    }
    let Some(result) = result else {
        return Ok(RepOutcome::Failed {
            reason: format!("child ended without a result ({status})"),
            wedged: false,
        });
    };
    if let Some(error) = result.get("error").and_then(Value::as_str) {
        return Ok(RepOutcome::Failed {
            reason: error.to_string(),
            wedged: false,
        });
    }
    let parsed = (|| {
        let values = result
            .get("values")?
            .as_object()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<Values>>()?;
        let hash = u64::from_str_radix(result.get("stream_hash")?.as_str()?, 16).ok()?;
        Some((values, hash))
    })();
    let (values, stream_hash) = parsed.ok_or("child result lacks values or stream_hash")?;
    Ok(RepOutcome::Done {
        values,
        stream_hash,
    })
}

/// The child side: run `spec`, heartbeat while doing so, print the result.
/// The heartbeat thread loops until the process ends.
pub fn child_main(spec: &RepSpec) {
    std::thread::spawn(|| loop {
        std::thread::sleep(HEARTBEAT);
        let done: u64 = PROGRESS.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        println!("hb {} {done}", PHASE.load(Ordering::Relaxed));
    });
    let doc = match rep::run(spec) {
        Ok(out) => Value::object([
            (
                "values",
                Value::object(out.values.into_iter().map(|(k, v)| (k, Value::Num(v)))),
            ),
            (
                "stream_hash",
                Value::str(format!("{:016x}", out.stream_hash)),
            ),
        ]),
        Err(e) => Value::object([("error", Value::str(e))]),
    };
    println!("result {}", doc.render());
}

/// Where traced repetitions write their spans unless told otherwise:
/// `out/` next to this package's manifest.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
