//! The end-to-end run: set-up rounds, then a closed loop of whole passes
//! over the workload's input for a fixed time, tracing off.

use crate::input::{build_captures, gen_config, Capture, Counters, Settings};
use crate::json::Value;
use crate::ops::{self, Counts, OpResult};
use crate::spans::Recorder;
use crate::spec::{Mode, Workload};
use crate::{stats, BenchError};
use ent_core::{
    build_report, run_study, DatasetAnalysis, PipelineConfig, StudyConfig, StudyReport,
};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a workload iterates over.
pub enum Input {
    /// The study config; generation happens inside every iteration.
    Study(StudyConfig),
    /// Pre-built pcap buffers.
    Captures(Vec<Capture>),
}

/// Build the workload's input from the seed, writing pcap images into
/// the buffers of `recycled` where it has any. Returns the generation
/// spans and counts too, which only the traced run keeps.
pub fn prepare(
    w: &Workload,
    s: &Settings,
    recycled: Vec<Vec<u8>>,
) -> Result<(Input, Recorder, Counters), BenchError> {
    let gen = gen_config(w, s);
    let mut rec = Recorder::new();
    let mut counts = Counters::default();
    let input = match w.mode {
        // The gate configuration: one worker thread, serial ingest.
        Mode::Study => Input::Study(StudyConfig {
            gen,
            pipeline: PipelineConfig::default(),
            threads: 1,
        }),
        _ => Input::Captures(build_captures(w, &gen, recycled, &mut rec, &mut counts)?),
    };
    Ok((input, rec, counts))
}

/// One full pass over the input.
pub struct Iteration {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// One result per trace, in input order.
    pub ops: Vec<OpResult>,
    /// Hash of the rendered study report (0 for capture workloads).
    pub digest: u64,
}

impl Iteration {
    /// Packets analysed in the pass.
    pub fn packets(&self) -> u64 {
        self.ops.iter().map(|o| o.counts.packets).sum()
    }
}

/// Run one pass. Pushes one `ns/packet` sample per call the benchmark
/// itself drives: per trace for capture workloads, per study otherwise
/// (`run_study` owns the per-trace loop). A panicking analysis is a
/// failed operation, not a failed benchmark.
pub fn iterate(w: &Workload, input: &Input, samples: &mut Vec<f64>) -> Iteration {
    let start = Instant::now();
    match input {
        Input::Study(config) => {
            let done = catch_unwind(AssertUnwindSafe(|| {
                let studies = run_study(config);
                let report = build_report(&studies);
                black_box(report.render());
                (studies, report)
            }));
            let wall_s = start.elapsed().as_secs_f64();
            let Ok((studies, report)) = done else {
                return Iteration {
                    wall_s,
                    ops: vec![OpResult::default()],
                    digest: 0,
                };
            };
            let it = study_result(&studies, &report, wall_s);
            samples.push(wall_s * 1e9 / it.packets().max(1) as f64);
            it
        }
        Input::Captures(caps) => {
            let mut ops = Vec::with_capacity(caps.len());
            for cap in caps {
                let t0 = Instant::now();
                let op = capture_op(w.mode, cap);
                samples.push(t0.elapsed().as_nanos() as f64 / cap.packets.max(1) as f64);
                ops.push(black_box(op));
            }
            Iteration {
                wall_s: start.elapsed().as_secs_f64(),
                ops,
                digest: 0,
            }
        }
    }
}

/// Judge one finished study: per-trace counts and health, and a hash of
/// every rendered table, figure and note but one. The scan-study table
/// lists each dataset's top sources after a stable sort over `HashMap`
/// iteration order, so sources tied at the cut-off come and go from run to
/// run of the same study (seen at seeds 1 and 5); everything else must
/// repeat byte for byte.
pub fn study_result(studies: &[DatasetAnalysis], report: &StudyReport, wall_s: f64) -> Iteration {
    let ops = studies
        .iter()
        .flat_map(|d| &d.traces)
        .map(|t| OpResult {
            counts: Counts::of(t),
            ok: t.packets > 0 && ops::undamaged(&t.health),
        })
        .collect();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for t in report
        .tables
        .iter()
        .filter(|t| !t.title.starts_with("Scan study"))
    {
        t.render().hash(&mut hasher);
    }
    for f in &report.figures {
        f.render().hash(&mut hasher);
    }
    report.notes.hash(&mut hasher);
    Iteration {
        wall_s,
        ops,
        digest: hasher.finish(),
    }
}

/// One capture operation on the workload's own call path. A panic or an
/// error is a failed operation.
pub fn capture_op(mode: Mode, cap: &Capture) -> OpResult {
    let done = catch_unwind(AssertUnwindSafe(|| match mode {
        Mode::Monitor => ops::monitor(cap),
        Mode::Sharded => ops::sharded(cap).map(|a| OpResult::of(&a, cap)),
        _ => ops::serial(cap, &PipelineConfig::default()).map(|a| OpResult::of(&a, cap)),
    }));
    match done {
        Ok(Ok(op)) => op,
        _ => OpResult::default(),
    }
}

/// How many operations of `it` fail against the reference pass `first`:
/// not `ok`, or counts that differ from the reference's.
pub fn failures(it: &Iteration, first: &Iteration) -> u64 {
    if it.ops.len() != first.ops.len() || it.digest != first.digest {
        return it.ops.len().max(first.ops.len()) as u64;
    }
    it.ops
        .iter()
        .zip(&first.ops)
        .filter(|(op, reference)| !op.ok || op.counts != reference.counts)
        .count() as u64
}

/// Traces of the warm-up pass whose counts disagree with the serial
/// `analyze_capture` of the same buffer. One sharded worker must agree on
/// everything. The monitor closes open connections at every epoch cut
/// (DESIGN §9), so its connection and record counts legitimately exceed
/// the batch ones; it must agree on packets and wire bytes.
fn cross_mode_failures(w: &Workload, input: &Input, warm: &Iteration) -> Result<u64, BenchError> {
    let Input::Captures(caps) = input else {
        return Ok(0);
    };
    if w.mode == Mode::Serial {
        return Ok(0);
    }
    let mut failed = 0;
    for (cap, op) in caps.iter().zip(&warm.ops) {
        let reference = Counts::of(&ops::serial(cap, &PipelineConfig::default())?);
        let agrees = match w.mode {
            Mode::Monitor => {
                (op.counts.packets, op.counts.wire_bytes)
                    == (reference.packets, reference.wire_bytes)
            }
            _ => op.counts == reference,
        };
        failed += u64::from(!agrees);
    }
    Ok(failed)
}

/// The fingerprint-pinned size of the gate study at seed 2005: traces,
/// packets, wire bytes (`tests/tests/gen_fingerprint.rs` pins the same
/// generator output).
const GATE_2005: (usize, u64, u64) = (133, 2_484_955, 1_464_891_360);

fn pinned_failures(w: &Workload, s: &Settings, it: &Iteration) -> u64 {
    if w.name != "study_gate" || s.seed != 2005 || s.smoke {
        return 0;
    }
    let wire: u64 = it.ops.iter().map(|o| o.counts.wire_bytes).sum();
    if (it.ops.len(), it.packets(), wire) == GATE_2005 {
        0
    } else {
        it.ops.len() as u64
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError("no VmHWM in /proc/self/status".to_string()))
}

/// Set-up rounds per run; `setup_s` is their median. Always three; short
/// set-ups (a third of a second on the capture workloads, where one slow
/// spell moves a median of three) repeat until two seconds are spent or
/// nine rounds are made.
const SETUP_MIN_ROUNDS: usize = 3;
const SETUP_MAX_ROUNDS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

/// The set-up phase shared with the traced run: `rounds` times, build the
/// input afresh and run one warm-up pass over it.
pub struct Setup {
    /// The last round's input.
    pub input: Input,
    /// The last round's generation spans and counts.
    pub gen: (Recorder, Counters),
    /// The last round's warm-up pass: the reference every later pass must
    /// reproduce.
    pub warm: Iteration,
    /// Wall of each round.
    pub round_s: Vec<f64>,
    /// Wall of each warm-up pass.
    pub warm_s: Vec<f64>,
}

/// Run the set-up phase.
pub fn setup(w: &Workload, s: &Settings) -> Result<Setup, BenchError> {
    let (mut round_s, mut warm_s) = (Vec::new(), Vec::new());
    let mut recycled = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let (input, rec, counts) = prepare(w, s, recycled)?;
        let warm = iterate(w, &input, &mut Vec::new());
        round_s.push(t0.elapsed().as_secs_f64());
        warm_s.push(warm.wall_s);
        let spent = start.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        let done = round_s.len();
        if s.smoke || done >= SETUP_MAX_ROUNDS || (done >= SETUP_MIN_ROUNDS && spent) {
            return Ok(Setup {
                input,
                gen: (rec, counts),
                warm,
                round_s,
                warm_s,
            });
        }
        // The next round rebuilds the input into this round's buffers, so
        // the peak resident set is that of one input whatever the
        // allocator does with freed memory.
        recycled = match input {
            Input::Captures(caps) => caps.into_iter().map(|c| c.data).collect(),
            Input::Study(_) => Vec::new(),
        };
    }
}

/// The result of one run of one workload.
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and spread, for the result file.
    pub detail: Value,
}

/// Run `w` untraced and report every end-to-end metric.
pub fn run(w: &Workload, s: &Settings) -> Result<Outcome, BenchError> {
    let Setup {
        input,
        warm,
        round_s,
        ..
    } = setup(w, s)?;

    let mut attempted = warm.ops.len() as u64;
    let mut failed = failures(&warm, &warm)
        .max(cross_mode_failures(w, &input, &warm)?)
        .max(pinned_failures(w, s, &warm));

    let min_iters = if s.smoke { 1 } else { w.min_iters };
    let mut samples = Vec::new();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < min_iters || start.elapsed().as_secs_f64() < s.seconds {
        let it = iterate(w, &input, &mut samples);
        attempted += it.ops.len() as u64;
        failed += failures(&it, &warm);
        rates.push(it.packets() as f64 / it.wall_s);
        walls.push(it.wall_s * 1e3);
    }

    // The tail percentile is fixed by the samples the run is guaranteed to
    // take, not by how many it happened to take: a faster program must not
    // be read at a higher percentile than the one it is compared with.
    let per_iteration = if w.mode == Mode::Study {
        1
    } else {
        warm.ops.len()
    };
    let tail_p = stats::tail_percentile(per_iteration * min_iters);
    let tail_value = stats::percentile(&samples, tail_p);
    let metrics = vec![
        ("setup_s", stats::median(&round_s)),
        ("pkts_per_s", stats::median(&rates)),
        ("trace_ns_per_pkt_p50", stats::median(&samples)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("trace_ns_per_pkt_tail", tail_value),
    ];
    let detail = Value::obj([
        ("iterations", Value::Num(walls.len() as f64)),
        (
            "iteration_wall_ms_quartiles",
            Value::Arr(stats::quartiles(&walls).map(Value::Num).to_vec()),
        ),
        ("traces_per_iteration", Value::Num(warm.ops.len() as f64)),
        ("packets_per_iteration", Value::Num(warm.packets() as f64)),
        ("ns_per_pkt_samples", Value::Num(samples.len() as f64)),
        ("tail_percentile_used", Value::Num(tail_p)),
        (
            "setup_rounds_s",
            Value::Arr(round_s.into_iter().map(Value::Num).collect()),
        ),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        detail,
    })
}
