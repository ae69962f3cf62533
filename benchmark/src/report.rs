//! The `run` and `compare` subcommands: one result file for all six
//! workloads, and a bound-by-bound comparison of two such files.

use crate::input::Settings;
use crate::json::{self, Value};
use crate::spec::{Better, MetricDef, DIAGNOSTICS, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{stats, BenchError};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Schema tag of the result file.
const SCHEMA: &str = "ent-benchmark/1";

/// First line of a tool's standard output, or "unknown" when the tool is
/// absent (a checkout need not be a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and toolchain a result came from.
fn machine_context() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::str(cpu)),
        ("rustc", Value::str(tool_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// What one child run printed: its result line, its detail line and
/// (untraced runs) its diagnostics line.
struct ChildRun {
    result: Value,
    detail: Value,
    diagnostics: Value,
    exit_ok: bool,
}

/// Run one workload in a child process of its own (so `peak_rss_mb` is
/// that workload's alone), wait for it, and read its output back.
fn run_child(name: &str, s: &Settings, traced: bool) -> Result<ChildRun, BenchError> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if s.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| BenchError(format!("{name}: the run printed nothing")))?;
    let result = json::parse(last).map_err(|e| BenchError(format!("{name}: result line: {e}")))?;
    let tagged = |tag: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(tag))
            .and_then(|d| json::parse(d).ok())
            .unwrap_or(Value::Null)
    };
    Ok(ChildRun {
        result,
        detail: tagged("detail: "),
        diagnostics: tagged("diagnostics: "),
        exit_ok: output.status.success(),
    })
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Untraced runs per workload in one `run`: every end-to-end figure in
/// the result file is the median of this many. The reference box drifts
/// by 20 % and more over tens of seconds; single runs of one commit
/// taken minutes apart disagreed by 31 % on `analyze_headers`.
const UNTRACED_ROUNDS: usize = 3;

/// Per-metric median over runs of the `{name: {value, unit}}` objects
/// they printed.
fn medians(table: &[MetricDef], runs: &[&Value]) -> Value {
    Value::obj(table.iter().map(|def| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|m| m.get(def.name)?.get("value")?.as_f64())
            .collect();
        let entry = [
            ("value", Value::Num(stats::median(&values))),
            ("unit", Value::str(def.unit)),
        ];
        (def.name, Value::obj(entry))
    }))
}

/// Run every workload — untraced in rounds over all six, so that a slow
/// spell of the machine falls on all of them alike, then traced — one
/// child process after another, and write the merged result file.
pub fn run_all(s: &Settings, out: &Path) -> Result<ExitCode, BenchError> {
    let rounds = if s.smoke { 1 } else { UNTRACED_ROUNDS };
    let mut plain: Vec<Vec<ChildRun>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for _ in 0..rounds {
        for (w, runs) in WORKLOADS.iter().zip(&mut plain) {
            runs.push(run_child(w.name, s, false)?);
        }
    }
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for (w, plain) in WORKLOADS.iter().zip(&plain) {
        let traced = run_child(w.name, s, true)?;
        let all = || plain.iter().chain([&traced]);
        let attempted: f64 = all().map(|r| count(&r.result, "attempted")).sum();
        let failed: f64 = all().map(|r| count(&r.result, "failed")).sum();
        all_ok &= failed == 0.0 && all().all(|r| r.exit_ok);
        let metrics: Vec<&Value> = plain
            .iter()
            .filter_map(|r| r.result.get("metrics"))
            .collect();
        let diagnostics: Vec<&Value> = plain.iter().map(|r| &r.diagnostics).collect();
        let runs = plain.iter().map(|r| {
            Value::obj([
                (
                    "metrics",
                    r.result.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                ("diagnostics", r.diagnostics.clone()),
                ("detail", r.detail.clone()),
            ])
        });
        workloads.push((
            w.name,
            Value::obj([
                ("why", Value::str(w.why)),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("fail_ratio", Value::Num(failed / attempted.max(1.0))),
                ("end_to_end", medians(&END_TO_END, &metrics)),
                ("diagnostics", medians(&DIAGNOSTICS, &diagnostics)),
                ("end_to_end_runs", Value::Arr(runs.collect())),
                (
                    "per_layer",
                    traced.result.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                ("per_layer_detail", traced.detail),
            ]),
        ));
    }
    let doc = Value::obj([
        ("schema", Value::str(SCHEMA)),
        ("seed", Value::Num(s.seed as f64)),
        ("seconds", Value::Num(s.seconds)),
        ("smoke", Value::Bool(s.smoke)),
        ("machine", machine_context()),
        ("workloads", Value::obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, doc.render_pretty())?;
    println!("wrote {}", out.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &Path) -> Result<Value, BenchError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| BenchError(format!("{}: {e}", path.display())))?;
    let doc = json::parse(&text).map_err(|e| BenchError(format!("{}: {e}", path.display())))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(BenchError(format!(
            "{}: schema {other:?}, expected {SCHEMA}",
            path.display()
        ))),
    }
}

fn metric(doc: &Value, workload: &str, section: &str, name: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// By how much `b` is worse than `a`, as a share of `a`, in the metric's
/// own direction (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let rel = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match def.better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Compare result file `b` against baseline `a`: every end-to-end metric
/// against its bound, every per-layer metric for information. Exits
/// non-zero on any regression or failed operation.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, BenchError> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressions = 0u32;
    println!(
        "baseline {}  candidate {}",
        a_path.display(),
        b_path.display()
    );
    for w in &WORKLOADS {
        println!("\n== {} ==", w.name);
        let failed = b
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .map_or(0.0, |x| count(x, "failed"));
        if failed > 0.0 {
            regressions += 1;
            println!(
                "{:<36} {failed} failed operations  REGRESSION (bound 0)",
                "fail_ratio"
            );
        }
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("diagnostics", &DIAGNOSTICS[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for def in table {
                let (Some(va), Some(vb)) = (
                    metric(&a, w.name, section, def.name),
                    metric(&b, w.name, section, def.name),
                ) else {
                    println!("{:<36} missing from one file", def.name);
                    continue;
                };
                let worse = worsening(def, va, vb);
                let verdict = match def.bound {
                    Some(bound) if worse > bound => {
                        regressions += 1;
                        format!("REGRESSION (bound {bound})")
                    }
                    Some(bound) => format!("ok (bound {bound})"),
                    None => String::new(),
                };
                println!(
                    "{:<36} {va:>16.4} -> {vb:>16.4} {:<12} {:+8.2}% {} {verdict}",
                    def.name,
                    def.unit,
                    (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0,
                    if worse > 0.0 { "worse " } else { "better" },
                );
            }
        }
    }
    println!("\n{regressions} regression(s)");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let higher = END_TO_END
            .iter()
            .find(|m| m.name == "pkts_per_s")
            .expect("pkts_per_s");
        assert!((worsening(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(lower, 2.0, 1.8) + 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(lower, 0.0, 5.0), 0.0);
    }

    /// A result file written by `run` reads back through `compare`'s
    /// accessors with every digit intact.
    #[test]
    fn result_file_round_trips() {
        let measured = 2_839_798.123_456_789_f64;
        let doc = Value::obj([
            ("schema", Value::str(SCHEMA)),
            (
                "workloads",
                Value::obj([(
                    "study_gate",
                    Value::obj([
                        ("failed", Value::Num(0.0)),
                        (
                            "end_to_end",
                            Value::obj([(
                                "pkts_per_s",
                                Value::obj([
                                    ("value", Value::Num(measured)),
                                    ("unit", Value::str("packets/s")),
                                ]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ]);
        let back = json::parse(&doc.render_pretty()).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(
            metric(&back, "study_gate", "end_to_end", "pkts_per_s"),
            Some(measured)
        );
        assert_eq!(metric(&back, "study_gate", "end_to_end", "absent"), None);
        assert_eq!(metric(&back, "absent", "end_to_end", "pkts_per_s"), None);
    }
}
