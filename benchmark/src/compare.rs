//! `bench compare a.json b.json`: judge result `b` against baseline `a`
//! with the bounds fixed in [`crate::spec`], one row per (metric,
//! workload). A pair whose run-to-run spread exceeds its bound is reported
//! as unresolved, never as unchanged; results taken on different machines,
//! toolchains, seeds or scales are not compared at all.

use crate::json::Value;
use crate::spec::{end_to_end, Better, Workload, SETUP_FLOOR_S};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The interquartile spread of either side exceeds the bound.
    Unresolved,
}

/// Judge one metric on one workload. `worse` is the share of the
/// baseline median by which `b` is worse (negative when better).
pub fn judge(metric: &str, better: Better, bound: f64, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let delta = match better {
        Better::Higher => a.median - b.median,
        Better::Lower => b.median - a.median,
    };
    let worse = if a.median == 0.0 {
        // Only `failed_share` rests at 0: any increase is the whole story.
        delta
    } else {
        delta / a.median.abs()
    };
    let verdict = if a.spread().max(b.spread()) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else if worse > bound && !(metric == "setup_s" && delta <= SETUP_FLOOR_S) {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compare two `bench run` result documents. `Err` when they must not be
/// compared (fingerprints differ, malformed input); otherwise the report
/// and whether any pair regressed.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let fingerprint = |v: &Value| {
        v.get("header")
            .and_then(|h| h.get("fingerprint"))
            .cloned()
            .ok_or("not a `bench run` result: no header.fingerprint")
    };
    let (fa, fb) = (fingerprint(a)?, fingerprint(b)?);
    if fa != fb {
        return Err(format!(
            "refusing to compare results with different fingerprints:\n  a: {}\n  b: {}",
            fa.render(),
            fb.render()
        ));
    }
    let workloads = |v: &Value| {
        v.get("workloads")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
            .ok_or("not a `bench run` result: no workloads")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut report = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "a median", "b median", "worse by", "bound", "verdict"
    );
    let mut regressed = false;
    for (name, ra) in &wa {
        let workload =
            Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let Some(rb) = wb.iter().find(|(n, _)| n == name).map(|(_, r)| r) else {
            report.push_str(&format!("{name:<16} missing from b\n"));
            regressed = true;
            continue;
        };
        // A workload whose every repetition failed reports no hash.
        let hash = |r: &Value| {
            r.get("stream_hash")
                .and_then(Value::as_str)
                .map(String::from)
        };
        if let (Some(ha), Some(hb)) = (hash(ra), hash(rb)) {
            if ha != hb {
                return Err(format!(
                    "{name}: the two results measured different op streams"
                ));
            }
        }
        let metrics = |r: &Value| {
            r.get("end_to_end")
                .and_then(Value::as_object)
                .map(<[_]>::to_vec)
                .ok_or_else(|| format!("{name}: no end_to_end metrics"))
        };
        let (ma, mb) = (metrics(ra)?, metrics(rb)?);
        for (metric, sa) in &ma {
            let spec = end_to_end(metric).ok_or_else(|| format!("unknown metric {metric:?}"))?;
            let bound = (spec.bound)(workload)
                .ok_or_else(|| format!("{metric} does not apply to {name}"))?;
            let sa =
                Summary::from_json(sa).ok_or_else(|| format!("{name}.{metric}: bad summary"))?;
            let Some(sb) = mb
                .iter()
                .find(|(n, _)| n == metric)
                .and_then(|(_, s)| Summary::from_json(s))
            else {
                // Every repetition of b failed: `failed_share` carries
                // that verdict, there is nothing here to judge.
                report.push_str(&format!("{name:<16} {metric:<18} no samples in b\n"));
                continue;
            };
            let (worse, verdict) = judge(metric, spec.better, bound, &sa, &sb);
            regressed |= verdict == Verdict::Regression;
            report.push_str(&format!(
                "{name:<16} {metric:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}\n",
                sa.median,
                sb.median,
                100.0 * worse,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                }
            ));
        }
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(v: f64) -> Summary {
        Summary::of(&[v; 5]).unwrap()
    }

    #[test]
    fn judges_direction_bound_and_spread() {
        let j = |m, better, bound, a: &Summary, b: &Summary| judge(m, better, bound, a, b).1;
        let (a, slower, faster) = (steady(100.0), steady(90.0), steady(120.0));
        assert_eq!(
            j("ops_per_s", Better::Higher, 0.05, &a, &slower),
            Verdict::Regression
        );
        assert_eq!(
            j("ops_per_s", Better::Higher, 0.10, &a, &slower),
            Verdict::Ok
        );
        assert_eq!(
            j("ops_per_s", Better::Higher, 0.05, &a, &faster),
            Verdict::Ok
        );
        assert_eq!(
            j("op_p50_ns", Better::Lower, 0.05, &a, &faster),
            Verdict::Regression
        );
        let noisy = Summary::of(&[80.0, 90.0, 100.0, 110.0, 120.0]).unwrap();
        assert_eq!(
            j("ops_per_s", Better::Higher, 0.05, &noisy, &slower),
            Verdict::Unresolved
        );
        // failed_share: any increase from 0 regresses; staying at 0 is ok.
        assert_eq!(
            j(
                "failed_share",
                Better::Lower,
                0.0,
                &steady(0.0),
                &steady(0.2)
            ),
            Verdict::Regression
        );
        assert_eq!(
            j(
                "failed_share",
                Better::Lower,
                0.0,
                &steady(0.0),
                &steady(0.0)
            ),
            Verdict::Ok
        );
        // setup_s: +50% but only +0.05 s is under the floor; +0.5 s is not.
        assert_eq!(
            j("setup_s", Better::Lower, 0.25, &steady(0.1), &steady(0.15)),
            Verdict::Ok
        );
        assert_eq!(
            j("setup_s", Better::Lower, 0.25, &steady(1.0), &steady(1.5)),
            Verdict::Regression
        );
    }

    fn doc(seed: &str, ops: f64) -> Value {
        Value::object([
            (
                "header",
                Value::object([("fingerprint", Value::object([("seed", Value::str(seed))]))]),
            ),
            (
                "workloads",
                Value::object([(
                    "pool-mixed",
                    Value::object([
                        ("stream_hash", Value::str("00ff")),
                        (
                            "end_to_end",
                            Value::object([("ops_per_s", steady(ops).to_json())]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn refuses_other_fingerprints_and_flags_regressions() {
        assert!(compare(&doc("1", 100.0), &doc("2", 100.0)).is_err());
        let (report, regressed) = compare(&doc("1", 100.0), &doc("1", 99.0)).unwrap();
        assert!(!regressed, "{report}");
        let (report, regressed) = compare(&doc("1", 100.0), &doc("1", 80.0)).unwrap();
        assert!(regressed && report.contains("REGRESSION"), "{report}");
    }
}
