//! `bench` — the repo's one benchmark. See README.md beside the manifest.
//!
//! ```text
//! bench run [--seed N] [--traced] [--smoke] [--workload W].. [--out FILE]
//! bench compare A.json B.json
//! bench list
//! bench --workload W --seed N --seconds S --trace 0|1    (acceptance driver)
//! ```

mod compare;
mod gen;
mod harness;
mod json;
mod micro;
mod rep;
mod run;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;

use rep::{RepSpec, Scale, Variant};
use spec::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  bench run [--seed N] [--traced] [--smoke] [--workload NAME].. [--out FILE]
      every workload (or the named ones) with tracing off: 1 warm-up + 5 timed
      repetitions each, outputs checked; --traced adds one instrumented
      repetition per workload for the per-layer metrics; --smoke uses tiny
      op counts (<= 10 s in all, every check on)
  bench compare A.json B.json
      judge result B against baseline A with the benchmark's fixed bounds
  bench list
      every workload and metric by name, with units, directions and bounds
  bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one workload, one JSON result line (the acceptance driver's entry)";

/// `--flag value` pairs and bare `--switch`es of one subcommand.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn switch(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// Every value given for `name` (a flag may repeat).
    fn values(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut found = Vec::new();
        while let Some(i) = self.rest.iter().position(|a| a == name) {
            if i + 1 >= self.rest.len() {
                return Err(format!("{name} needs a value"));
            }
            found.push(self.rest.remove(i + 1));
            self.rest.remove(i);
        }
        Ok(found)
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let mut all = self.values(name)?;
        if all.len() > 1 {
            return Err(format!("{name} given more than once"));
        }
        Ok(all.pop())
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
            .transpose()
    }

    fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

fn read_json(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Returns the process exit code.
fn dispatch(argv: Vec<String>) -> Result<i32, String> {
    let command = argv.first().cloned().unwrap_or_default();
    let mut args = Args {
        rest: argv.into_iter().skip(1).collect(),
    };
    match command.as_str() {
        "run" => {
            let scale = if args.switch("--smoke") {
                Scale::Smoke
            } else {
                Scale::Full
            };
            let named = args.values("--workload")?;
            let opts = run::RunOpts {
                seed: args.parsed("--seed")?.unwrap_or(1),
                scale,
                traced: args.switch("--traced"),
                workloads: if named.is_empty() {
                    WORKLOADS.iter().map(|w| w.id).collect()
                } else {
                    named
                        .iter()
                        .map(|n| workload(n))
                        .collect::<Result<_, _>>()?
                },
                out: args.value("--out")?.map_or_else(
                    || harness::default_out_dir().join("run.json"),
                    PathBuf::from,
                ),
            };
            args.finish()?;
            run::run_all(&opts)?;
            Ok(0)
        }
        "compare" => {
            let [a, b] = args.rest.as_slice() else {
                return Err("compare takes exactly two result files".into());
            };
            let (report, regressed) = compare::compare(&read_json(a)?, &read_json(b)?)?;
            print!("{report}");
            Ok(regressed as i32)
        }
        "list" => {
            args.finish()?;
            print!("{}", spec::describe());
            Ok(0)
        }
        // The child side of a repetition (see harness.rs); not for people.
        "rep" => {
            let required = |v: Option<String>, name: &str| v.ok_or(format!("rep needs {name}"));
            let spec = RepSpec {
                workload: workload(&required(args.value("--workload")?, "--workload")?)?,
                seed: args.parsed("--seed")?.ok_or("rep needs --seed")?,
                scale: Scale::by_name(&required(args.value("--scale")?, "--scale")?)
                    .ok_or("unknown --scale")?,
                variant: Variant::by_name(&required(args.value("--variant")?, "--variant")?)
                    .ok_or("unknown --variant")?,
                traced: args.switch("--traced"),
                deep_check: args.switch("--deep-check"),
                trace_out: args.value("--trace-out")?.map(PathBuf::from),
            };
            args.finish()?;
            harness::child_main(&spec);
            Ok(0)
        }
        // No subcommand: the acceptance driver appends its four flags to
        // the command in BENCHMARK.json.
        "--workload" | "--seed" | "--seconds" | "--trace" => {
            args.rest.insert(0, command);
            let w = workload(&args.value("--workload")?.ok_or("--workload is required")?)?;
            let seed = args.parsed("--seed")?.ok_or("--seed is required")?;
            let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
            let trace = match args.value("--trace")?.as_deref() {
                Some("0") => false,
                Some("1") => true,
                _ => return Err("--trace must be 0 or 1".into()),
            };
            // Not one of the driver's flags: lets the tests walk this entry
            // on tiny sizes.
            let scale = if args.switch("--smoke") {
                Scale::Smoke
            } else {
                Scale::Full
            };
            args.finish()?;
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err("--seconds must be positive".into());
            }
            run::drive(w, seed, scale, seconds, trace)?;
            Ok(0)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    let code = dispatch(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        2
    });
    std::process::exit(code);
}
