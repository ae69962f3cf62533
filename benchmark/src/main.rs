//! # ent-benchmark — the repository's benchmark
//!
//! Six workloads over the study, capture-analysis, monitor and sharded
//! paths; end-to-end metrics from untraced runs, per-layer metrics from
//! separately traced runs. `BENCHMARK.json` at the repository root
//! declares the workloads and metrics; `README.md` beside this crate says
//! what each is for.
//!
//! ```text
//! ent-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ent-benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE]
//! ent-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `run` executes that form for every
//! workload, untraced then traced, each in a child process of its own, and
//! merges the results into one file.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod input;
mod json;
mod ops;
mod report;
mod spans;
mod spec;
mod stats;
mod traced;
mod untraced;

use input::Settings;
use json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Any failure of the benchmark itself (not of an operation under test):
/// rendered text, since all the caller can do is print it and exit.
#[derive(Debug)]
pub struct BenchError(pub String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl<E: std::error::Error> From<E> for BenchError {
    fn from(e: E) -> BenchError {
        BenchError(e.to_string())
    }
}

/// Where the benchmark writes: `out/` beside its manifest, inside the
/// checkout it was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parsed command-line flags: `--name value` pairs and bare switches.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    const SWITCHES: [&'static str; 1] = ["smoke"];

    fn parse(args: &[String]) -> Result<(Flags, Vec<String>), BenchError> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if Flags::SWITCHES.contains(&name) => {
                    flags.push((name.to_string(), None))
                }
                Some(name) => {
                    let value = it
                        .next()
                        .ok_or_else(|| BenchError(format!("--{name} needs a value")))?;
                    flags.push((name.to_string(), Some(value.clone())));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok((Flags(flags), positional))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, BenchError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| BenchError(format!("--{name}: cannot read `{v}`"))),
        }
    }

    fn settings(&self) -> Result<Settings, BenchError> {
        let smoke = self.has("smoke");
        let seconds: f64 = self.number(
            "seconds",
            if smoke { 0.0 } else { spec::RUN_SECONDS as f64 },
        )?;
        if !(0.0..=600.0).contains(&seconds) {
            return Err(BenchError(format!(
                "--seconds {seconds} is outside 0..=600"
            )));
        }
        Ok(Settings {
            seed: self.number("seed", 2005)?,
            seconds,
            smoke,
        })
    }

    fn only(&self, known: &[&str]) -> Result<(), BenchError> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(BenchError(format!("unknown flag --{n}"))),
            None => Ok(()),
        }
    }
}

/// Run one workload in this process; print its metrics and, last, the
/// result line.
fn run_one(flags: &Flags) -> Result<ExitCode, BenchError> {
    flags.only(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let name = flags
        .value("workload")
        .ok_or_else(|| BenchError("--workload NAME is required".to_string()))?;
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        BenchError(format!(
            "unknown workload `{name}`; one of {}",
            known.join(", ")
        ))
    })?;
    let traced = match flags.value("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(BenchError(format!("--trace takes 0 or 1, not `{other}`"))),
    };
    let settings = flags.settings()?;

    let outcome = if traced {
        traced::run(w, &settings, &out_dir())?
    } else {
        untraced::run(w, &settings)?
    };

    println!(
        "workload {} seed {} trace {}",
        w.name,
        settings.seed,
        u8::from(traced)
    );
    // Print every metric of `table` by name with its unit; return them as
    // the JSON object the result line and the result file carry.
    let print = |table: &[spec::MetricDef], note: &str| -> Result<Value, BenchError> {
        let mut members = Vec::with_capacity(table.len());
        for def in table {
            let value = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| BenchError(format!("metric {} was not measured", def.name)))?;
            println!("{:<36} {:>18.4} {}{note}", def.name, value, def.unit);
            let entry = [("value", Value::Num(value)), ("unit", Value::str(def.unit))];
            members.push((def.name, Value::obj(entry)));
        }
        Ok(Value::obj(members))
    };
    let metrics = if traced {
        print(&spec::PER_LAYER, "")?
    } else {
        let metrics = print(&spec::END_TO_END, "")?;
        let diagnostics = print(&spec::DIAGNOSTICS, "  (diagnostic, no bound)")?;
        println!("diagnostics: {}", diagnostics.render());
        metrics
    };
    println!(
        "operations: {} attempted, {} failed (fail_ratio {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("detail: {}", outcome.detail.render());
    let line = Value::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, BenchError> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let (flags, positional) = Flags::parse(args.get(1..).unwrap_or(&[]))?;
            flags.only(&["seed", "seconds", "smoke", "out"])?;
            if !positional.is_empty() {
                return Err(BenchError(format!(
                    "run takes no positional argument: {positional:?}"
                )));
            }
            let settings = flags.settings()?;
            let default = out_dir().join(format!("result-seed{}.json", settings.seed));
            let out = flags.value("out").map_or(default, PathBuf::from);
            report::run_all(&settings, &out)
        }
        Some("compare") => match args.get(1..) {
            Some([a, b]) => report::compare(Path::new(a), Path::new(b)),
            _ => Err(BenchError("usage: compare A.json B.json".to_string())),
        },
        _ => {
            let (flags, positional) = Flags::parse(args)?;
            if !positional.is_empty() {
                return Err(BenchError(format!("unexpected argument: {positional:?}")));
            }
            run_one(&flags)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: ent-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]");
            eprintln!("       ent-benchmark run [--seed N] [--seconds S] [--smoke] [--out FILE]");
            eprintln!("       ent-benchmark compare A.json B.json");
            ExitCode::from(2)
        }
    }
}
