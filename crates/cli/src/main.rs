//! `entreport` — end-to-end reproduction driver.
//!
//! Subcommands:
//! * `study`     — generate all five datasets, run every analysis, print
//!   every table and figure of the paper (optionally export CSVs).
//! * `generate`  — write one synthetic trace as a pcap file.
//! * `analyze`   — analyze a pcap file (ours or any Ethernet capture),
//!   inline or on the one worker lane (`--shards 1`).
//! * `monitor`   — resident monitor mode: stream a capture through the
//!   pipeline emitting rolling per-epoch reports, with optional
//!   crash-safe checkpoints and bounded-state budgets.
//! * `anonymize` — prefix-preserving anonymization of a pcap file.
//! * `packs`     — run the labeled scenario packs (base mix plus
//!   adversarial and modern-variant actors), score scanner removal
//!   against the ground-truth labels (precision/recall/F1), measure
//!   per-pack trace complexity (header-symbol entropy), and export the
//!   `ent-bench-packs/1` scoring document (`BENCH_packs.json`).
//! * `obs-check` — validate a bench export (pipeline, monitor or packs
//!   schema) and hold a study export to its hot-path wall share.
//! * `bench-compare` — gate a candidate bench export against a committed
//!   baseline (exact event/byte equality; walls are printed as ratios,
//!   never failed).
//!
//! Each command takes only the flags its usage line lists: any other
//! flag, a value flag with no value, a value that does not parse, or
//! `analyze --shards` other than 0 or 1 exits 2 naming the flag: a typo
//! never runs as the default. `study` and `packs` ingest every generated
//! trace inline, so `--shards` is not among their flags.

use ent_core::metrics::{
    bench_json, compare_bench_json, obs_check, validate_bench_json, Val, MONITOR, PACKS, PIPELINE,
};
use ent_core::run::{run_datasets, StudyConfig};
use ent_core::run_pack;
use ent_core::study::build_report;
use ent_core::{
    capture_meta, drive_capture, AnalysisError, Checkpoint, Monitor, MonitorConfig,
    PipelineConfig, PipelineMetrics,
};
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::{all_datasets, dataset, DatasetSpec};
use ent_gen::GenConfig;
use ent_anon::{anonymize_frame, Anonymizer};
use ent_pcap::{PacketArena, PcapWriter, RecoveringReader, TimedPacket};
use ent_wire::Timestamp;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

/// Unwrap a CLI-level result or exit with a message. Failures here are
/// user-environment errors (bad path, full disk, truncated file), not bugs.
fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("entreport: {what}: {e}");
        std::process::exit(1);
    })
}

/// Every command's synopsis: its positional arguments, then each flag it
/// takes (bracketed when optional; a flag followed by a placeholder takes
/// a value, a bare one is a switch). `usage()` prints these lists, and a
/// command exits 2 on any flag outside its own.
const COMMANDS: &[(&str, &str, &[&str])] = &[
    ("study", "", &["[--scale S]", "[--seed N]", "[--hosts N]", "[--threads N]", "[--datasets D0,D3]",
        "[--only 'table 9']", "[--csv-dir DIR]", "[--keep-scanners]", "[--bench-json FILE.json]"]),
    ("packs", "", &["[--scale S]", "[--seed N]", "[--hosts N]", "[--threads N]", "[--packs base,sweep]",
        "[--out FILE.json]"]),
    ("generate", "", &["--dataset D0", "[--subnet 3]", "[--pass 1]", "[--scale S]", "[--seed N]",
        "[--hosts N]", "--out FILE.pcap"]),
    ("analyze", "FILE.pcap", &["[--subnet N]", "[--name D0]", "[--shards 0|1]"]),
    ("monitor", "FILE.pcap", &["[--epoch-secs 300]", "[--checkpoint FILE.ckpt]", "[--max-conns N]",
        "[--max-pending N]", "[--stop-after-epochs N]", "[--name NAME]", "[--keep-scanners]",
        "[--bench-json FILE.json]"]),
    ("anonymize", "IN.pcap OUT.pcap", &["[--key SEED]"]),
    ("obs-check", "FILE.json", &[]),
    ("bench-compare", "BASELINE.json CANDIDATE.json", &[]),
];

/// One command's usage line.
fn synopsis(cmd: &str, positional: &str, flags: &[&str]) -> String {
    let words = [cmd, positional].into_iter().chain(flags.iter().copied());
    format!("  entreport {}", words.filter(|w| !w.is_empty()).collect::<Vec<_>>().join(" "))
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    for (cmd, positional, flags) in COMMANDS {
        eprintln!("{}", synopsis(cmd, positional, flags));
    }
    ExitCode::from(2)
}

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

/// Split `raw` into positional arguments, value flags and switches, by
/// the command's own flag list `takes` (see [`COMMANDS`]). A flag outside
/// the list, or a value flag with no value after it, is an error naming
/// the flag.
fn parse_args(takes: &[&str], raw: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            a.positional.push(arg.clone());
            continue;
        };
        let mut specs = takes.iter().map(|t| t.trim_matches(['[', ']']));
        let Some(spec) = specs.find(|t| t.split(' ').next() == Some(arg.as_str())) else {
            return Err(format!("unknown flag --{name}"));
        };
        if !spec.contains(' ') {
            a.switches.insert(name.to_string());
            continue;
        }
        match it.next_if(|v| !v.starts_with("--")) {
            Some(v) => a.flags.insert(name.to_string(), v.clone()),
            None => return Err(format!("--{name} needs a value")),
        };
    }
    Ok(a)
}

/// A command's outcome: its exit code, or the message of a flag it could
/// not use (exit 2).
type Outcome = Result<ExitCode, String>;

/// A flag's value parsed as `T`, `None` when absent. A value that does not
/// parse is an error naming the flag and the value.
fn flag<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, String> {
    match args.flags.get(name) {
        None => Ok(None),
        Some(s) => s.parse().map(Some).map_err(|_| format!("bad --{name} {s:?}")),
    }
}

/// `analyze --shards`: 0 (the inline engine, the default) or 1 (the one
/// worker lane).
fn shards(args: &Args) -> Result<usize, String> {
    match flag(args, "shards")?.unwrap_or(0) {
        n @ (0 | 1) => Ok(n),
        n => Err(format!("bad --shards {n} (0 = inline, 1 = one worker lane)")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, positional, takes)) =
        raw.first().and_then(|c| COMMANDS.iter().find(|(name, ..)| name == c))
    else {
        return usage();
    };
    let args = match parse_args(takes, &raw[1..]) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("entreport {cmd}: {why}\nusage:\n{}", synopsis(cmd, positional, takes));
            return ExitCode::from(2);
        }
    };
    let outcome = match *cmd {
        "study" => cmd_study(&args),
        "packs" => cmd_packs(&args),
        "generate" => cmd_generate(&args),
        "analyze" => cmd_analyze(&args),
        "monitor" => cmd_monitor(&args),
        "anonymize" => Ok(cmd_anonymize(&args)),
        "obs-check" => Ok(cmd_obs_check(&args)),
        "bench-compare" => Ok(cmd_bench_compare(&args)),
        _ => Ok(usage()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("entreport: {why}");
        ExitCode::from(2)
    })
}

fn gen_config(args: &Args) -> Result<GenConfig, String> {
    Ok(GenConfig {
        scale: flag(args, "scale")?.unwrap_or(0.01),
        seed: flag(args, "seed")?.unwrap_or(1),
        hosts_per_subnet: flag(args, "hosts")?,
    })
}

/// The datasets named by `--datasets D0,D3` (all five when absent).
fn selected_datasets(args: &Args) -> Vec<DatasetSpec> {
    let wanted: Option<Vec<&str>> = args.flags.get("datasets").map(|s| s.split(',').map(str::trim).collect());
    let keep = |d: &DatasetSpec| wanted.as_ref().is_none_or(|w| w.contains(&d.name));
    all_datasets().into_iter().filter(keep).collect()
}

fn cmd_study(args: &Args) -> Outcome {
    let config = StudyConfig {
        gen: gen_config(args)?,
        pipeline: PipelineConfig {
            keep_scanners: args.switches.contains("keep-scanners"),
            ..Default::default()
        },
        threads: flag(args, "threads")?.unwrap_or(0),
    };
    let specs = selected_datasets(args);
    eprintln!(
        "running study: scale={} seed={} datasets={:?}",
        config.gen.scale,
        config.gen.seed,
        specs.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    // One global work queue across every dataset: no worker idles at a
    // dataset boundary waiting for the previous dataset's stragglers.
    #[expect(clippy::disallowed_methods, reason = "the study wall is printed, not analyzed")]
    let t0 = std::time::Instant::now();
    let studies = run_datasets(&specs, &config);
    let study_wall_ns = t0.elapsed().as_nanos() as u64;
    let mut total = PipelineMetrics::default();
    for da in &studies {
        let m = da.pipeline_metrics();
        eprintln!(
            "  {}: {} traces, {} packets, {:.1}s worker time",
            da.spec.name,
            da.traces.len(),
            m.packets(),
            m.trace_wall_ns as f64 / 1e9
        );
        total.absorb(&m);
    }
    eprintln!(
        "study wall {:.1}s ({:.0} packets/s worker throughput), events signature {:016x}",
        study_wall_ns as f64 / 1e9,
        total.packets_per_sec(),
        total.events_signature_hash()
    );
    let mut report = build_report(&studies);
    if let Some(only) = args.flags.get("only") {
        let needle = only.to_ascii_lowercase();
        report
            .tables
            .retain(|t| t.title.to_ascii_lowercase().contains(&needle));
        report
            .figures
            .retain(|f| f.title.to_ascii_lowercase().contains(&needle));
        report
            .notes
            .retain(|n| n.to_ascii_lowercase().contains(&needle));
    }
    println!("{}", report.render());
    if !args.flags.contains_key("only") {
        println!("{}", total.stage_table("Pipeline stage metrics (study total)").render());
    }
    if let Some(path) = args.flags.get("bench-json") {
        let threads = config.workers(studies.iter().map(|da| da.traces.len()).sum());
        let run = [
            ("scale", Val::F(config.gen.scale)),
            ("seed", Val::U(config.gen.seed)),
            ("threads", Val::U(threads as u64)),
            ("study_wall_us", Val::F(study_wall_ns as f64 / 1e3)),
        ];
        let datasets: Vec<_> = studies
            .iter()
            .map(|da| {
                let m = da.pipeline_metrics();
                vec![
                    ("name", Val::S(da.spec.name.to_string())),
                    ("traces", Val::U(da.traces.len() as u64)),
                    ("wall_us", Val::F(m.trace_wall_ns as f64 / 1e3)),
                    ("packets", Val::U(m.packets())),
                    ("bytes", Val::U(m.bytes())),
                ]
            })
            .collect();
        let doc = or_die(bench_json(&PIPELINE, &run, Some(&total), &datasets), "bench json");
        or_die(validate_bench_json(&doc), "bench json self-check");
        or_die(std::fs::write(path, &doc), "write bench json");
        eprintln!("pipeline metrics written to {path}");
    }
    if let Some(dir) = args.flags.get("csv-dir") {
        or_die(std::fs::create_dir_all(dir), "create csv dir");
        for t in &report.tables {
            let fname = slug(&t.title);
            or_die(std::fs::write(format!("{dir}/{fname}.csv"), t.to_csv()), "write csv");
        }
        for f in &report.figures {
            let fname = slug(&f.title);
            or_die(std::fs::write(format!("{dir}/{fname}.csv"), f.to_csv(64)), "write csv");
        }
        eprintln!("CSV exports written to {dir}/");
    }
    Ok(ExitCode::SUCCESS)
}

fn slug(title: &str) -> String {
    title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .trim_matches('_')
        .chars()
        .take(48)
        .collect()
}

/// Precision floor of the pack scoring gate: of the connections
/// scanner removal flags, at least this share must belong to a labeled
/// scan source (attack actors built to *evade* the heuristic — floods,
/// brute force, exfiltration — must not be misflagged as scanners).
const PACK_PRECISION_FLOOR: f64 = 0.9;

/// Recall floor of the pack scoring gate: at least this share of
/// a pack's labeled scan-source connections must be flagged.
const PACK_RECALL_FLOOR: f64 = 0.9;

/// Run every scenario pack (or a `--packs` subset; `base` is always
/// included — it is the scoring anchor), score scanner removal against
/// the generator's ground-truth labels, and export the scored document as
/// `ent-bench-packs/1`. The built-in self-check is the scoring gate:
/// precision/recall floors per pack, plus per-pack header entropy that
/// must be distinguishable from the base mix. Defaults are the gate
/// configuration: scale 0.01, seed 2005, 1 worker thread, inline ingest.
fn cmd_packs(args: &Args) -> Outcome {
    let mut gen = gen_config(args)?;
    if !args.flags.contains_key("seed") {
        gen.seed = 2005; // the pack gate's seed, matching the study gate's
    }
    let threads: usize = flag(args, "threads")?.unwrap_or(1);
    let wanted: Option<Vec<String>> = args
        .flags
        .get("packs")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect());
    let names: Vec<&str> = ent_gen::PACK_NAMES
        .iter()
        .copied()
        .filter(|n| {
            *n == "base"
                || wanted
                    .as_ref()
                    .map(|w| w.iter().any(|x| x == n))
                    .unwrap_or(true)
        })
        .collect();
    let config = StudyConfig {
        gen,
        pipeline: PipelineConfig::default(),
        threads,
    };
    eprintln!(
        "scenario packs: scale={} seed={} threads={threads} packs={names:?}",
        gen.scale, gen.seed
    );
    println!(
        "{:<10} {:>7} {:>9} {:>8} {:>8} {:>5} {:>5} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "pack", "traces", "packets", "attack", "sources", "tp", "fp", "fn", "prec",
        "recall", "f1", "H(sym)", "H(pair)"
    );
    let mut entries = Vec::new();
    // The most worker threads any one pack's run started.
    let mut workers = 1;
    for name in names {
        let Some(pack) = ent_gen::packs::pack(name) else {
            eprintln!("entreport: unknown pack {name:?} (want one of {:?})", ent_gen::PACK_NAMES);
            return Ok(ExitCode::from(2));
        };
        let report = run_pack(&pack, &config);
        workers = workers.max(config.workers(report.traces as usize));
        println!(
            "{:<10} {:>7} {:>9} {:>8} {:>8} {:>5} {:>5} {:>5} {:>7.4} {:>7.4} {:>7.4} {:>9.4} {:>9.4}",
            report.name,
            report.traces,
            report.packets,
            report.attack_packets,
            report.scan_sources,
            report.score.true_pos,
            report.score.false_pos,
            report.score.false_neg,
            report.score.precision(),
            report.score.recall(),
            report.score.f1(),
            report.entropy_nontemporal,
            report.entropy_temporal,
        );
        entries.push(vec![
            ("name", Val::S(report.name.clone())),
            ("traces", Val::U(report.traces)),
            ("packets", Val::U(report.packets)),
            ("attack_packets", Val::U(report.attack_packets)),
            ("scan_sources", Val::U(report.scan_sources)),
            ("flagged", Val::U(report.flagged)),
            ("true_pos", Val::U(report.score.true_pos)),
            ("false_pos", Val::U(report.score.false_pos)),
            ("false_neg", Val::U(report.score.false_neg)),
            ("precision", Val::F(report.score.precision())),
            ("recall", Val::F(report.score.recall())),
            ("f1", Val::F(report.score.f1())),
            ("entropy_nontemporal", Val::F(report.entropy_nontemporal)),
            ("entropy_temporal", Val::F(report.entropy_temporal)),
        ]);
    }
    let run = [
        ("scale", Val::F(gen.scale)),
        ("seed", Val::U(gen.seed)),
        ("threads", Val::U(workers as u64)),
        ("precision_floor", Val::F(PACK_PRECISION_FLOOR)),
        ("recall_floor", Val::F(PACK_RECALL_FLOOR)),
    ];
    let doc = or_die(bench_json(&PACKS, &run, None, &entries), "packs json");
    // The self-check is the scoring gate: it fails if any pack misses a
    // floor or an adversarial pack is indistinguishable from base.
    or_die(validate_bench_json(&doc), "pack scoring self-check");
    match args.flags.get("out") {
        Some(path) => {
            or_die(std::fs::write(path, &doc), "write packs json");
            eprintln!("pack scores written to {path}");
        }
        None => print!("{doc}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(args: &Args) -> Outcome {
    let Some(name) = args.flags.get("dataset") else {
        return Ok(usage());
    };
    let Some(spec) = dataset(name) else {
        eprintln!("unknown dataset {name} (use D0..D4)");
        return Ok(ExitCode::from(2));
    };
    let subnet: u16 = flag(args, "subnet")?.unwrap_or(spec.monitored.start);
    let pass: u8 = flag(args, "pass")?.unwrap_or(1);
    let Some(out) = args.flags.get("out") else {
        return Ok(usage());
    };
    let config = gen_config(args)?;
    let (site, wan) = build_site(&spec, &config);
    let mut arena = PacketArena::unbounded();
    let (meta, _) = generate_trace_into(&site, &wan, &spec, subnet, pass, &config, &mut arena);
    let f = or_die(File::create(out), "create output file");
    or_die(arena.write_pcap(BufWriter::new(f)), "write pcap");
    eprintln!(
        "wrote {}: {} packets, {} wire bytes, snaplen {}",
        out,
        arena.len(),
        arena.wire_bytes(),
        meta.snaplen
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(args: &Args) -> Outcome {
    let Some(path) = args.positional.first() else {
        return Ok(usage());
    };
    let config = PipelineConfig {
        shards: shards(args)?,
        ..Default::default()
    };
    let subnet = flag(args, "subnet")?.unwrap_or(0);
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let name = args.flags.get("name").map(String::as_str).unwrap_or("pcap");
    // Only an unusable global header is fatal: everything readable past it
    // is salvaged from a possibly damaged file.
    let mut meta = match capture_meta(name, &data) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    meta.subnet = subnet;
    // Size the utilization bins to the capture's actual span, from a
    // header-only pass over the record timestamps. Binning is relative to
    // the first packet wherever its clock starts (epoch or zero), so
    // timestamps themselves need no rewriting.
    if let Ok(mut records) = RecoveringReader::new(&data) {
        if let Some(first) = records.next_record().map(|r| r.ts) {
            let mut last = first;
            while let Some(r) = records.next_record() {
                last = r.ts;
            }
            meta.duration =
                Timestamp::from_micros(last.saturating_micros_since(first) + 1_000_000);
        }
    }
    let a = match ent_core::analyze_capture(&data, meta, &config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    eprintln!("events signature {:016x}", a.metrics.events_signature_hash());
    println!(
        "trace: {} packets ({} IP, {} ARP, {} IPX, {} other)",
        a.packets, a.ip_packets, a.arp_packets, a.ipx_packets, a.other_l3_packets
    );
    println!("ingest health: {}", a.health);
    println!("connections: {}", a.conns.len());
    println!(
        "scanner sources removed: {:?} ({} conns)",
        a.scanners_removed, a.scanner_conns_removed
    );
    println!(
        "app records: http={} dns={} nbns={} cifs={} rpc={} nfs={} ncp={} tls={}",
        a.http.len(),
        a.dns.len(),
        a.nbns.len(),
        a.cifs.len(),
        a.rpc.len(),
        a.nfs.len(),
        a.ncp.len(),
        a.tls.len()
    );
    let mut by_cat: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for c in &a.conns {
        let e = by_cat.entry(c.category.label()).or_default();
        e.0 += 1;
        e.1 += c.payload_bytes();
    }
    let mut rows: Vec<_> = by_cat.into_iter().collect();
    rows.sort_by_key(|(_, (_, b))| std::cmp::Reverse(*b));
    println!("{:<14}{:>10}{:>14}", "category", "conns", "bytes");
    for (cat, (c, b)) in rows {
        println!("{cat:<14}{c:>10}{:>14}", ent_core::report::fmt_bytes(b));
    }
    println!();
    println!("{}", a.metrics.stage_table("Pipeline stage metrics").render());
    Ok(ExitCode::SUCCESS)
}

/// Validate a bench export: schema identifier, required fields, nonzero
/// wall time and events for every mandatory stage, and the schema's
/// within-run gate (a study's hot-path wall share).
fn cmd_obs_check(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match obs_check(&text) {
        Ok((s, gate)) => {
            println!(
                "{path}: ok — {} traces, {} packets, study wall {:.1}s",
                s.traces,
                s.packets,
                s.study_wall_us / 1e6
            );
            for (name, wall_us, events) in &s.stages {
                println!("  {name:<16}{:>12.1} ms{:>14} events", wall_us / 1e3, events);
            }
            print!("{gate}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Gate a candidate bench export against a committed baseline: exact
/// event/byte equality on every mandatory stage and exact key, walls
/// printed as ratios (see `ent_core::metrics::compare_bench_json`).
fn cmd_bench_compare(args: &Args) -> ExitCode {
    let (Some(base_path), Some(cand_path)) =
        (args.positional.first(), args.positional.get(1))
    else {
        return usage();
    };
    let baseline = or_die(std::fs::read_to_string(base_path), "read baseline json");
    let candidate = or_die(std::fs::read_to_string(cand_path), "read candidate json");
    match compare_bench_json(&baseline, &candidate) {
        Ok(report) => {
            print!("{report}");
            println!("bench-compare: ok ({cand_path} vs {base_path})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-compare: FAILED ({cand_path} vs {base_path}):\n{e}");
            ExitCode::FAILURE
        }
    }
}

/// Resident monitor mode: stream a capture through the pipeline, emitting
/// a full per-epoch report (plus cumulative totals) at every epoch
/// boundary. `--checkpoint` makes each boundary durable: the state file is
/// written atomically, and a later run with the same flag resumes
/// mid-stream, reproducing the remaining epochs exactly. A checkpoint that
/// fails to load degrades to a counted cold start, never an error exit.
fn cmd_monitor(args: &Args) -> Outcome {
    let Some(path) = args.positional.first() else {
        return Ok(usage());
    };
    let data = or_die(std::fs::read(path), "read capture");
    let epoch_secs: u64 = flag(args, "epoch-secs")?.unwrap_or(300);
    if epoch_secs == 0 {
        eprintln!("entreport: --epoch-secs must be nonzero");
        return Ok(ExitCode::from(2));
    }
    let name = args.flags.get("name").map(String::as_str).unwrap_or("monitor");
    let ckpt_path = args.flags.get("checkpoint").map(std::path::PathBuf::from);
    let cfg = MonitorConfig {
        epoch_secs,
        checkpoints: ckpt_path.is_some(),
        pipeline: PipelineConfig {
            keep_scanners: args.switches.contains("keep-scanners"),
            max_conns: flag(args, "max-conns")?.unwrap_or(0),
            max_pending: flag(args, "max-pending")?.unwrap_or(0),
            ..Default::default()
        },
    };
    let meta = or_die(capture_meta(name, &data), "open capture");
    let hint = data.len() / 600;
    let mut resume = None;
    let mut monitor = None;
    if let Some(p) = &ckpt_path {
        if p.exists() {
            let loaded = Checkpoint::load(p).and_then(|ck| {
                let m = Monitor::from_checkpoint(meta.clone(), cfg.clone(), &ck, hint)?;
                Ok((m, ck.resume_offset, ck.reader_clock_us, ck.epoch_index))
            });
            match loaded {
                Ok((m, offset, clock, idx)) => {
                    eprintln!(
                        "resuming from {} at epoch {idx} (offset {offset})",
                        p.display()
                    );
                    resume = Some((offset, clock));
                    monitor = Some(m);
                }
                Err(e) => {
                    eprintln!("checkpoint {}: {e}; degrading to cold start", p.display());
                }
            }
        }
    }
    let recovered = monitor.is_none() && ckpt_path.as_ref().is_some_and(|p| p.exists());
    let mut monitor = monitor.unwrap_or_else(|| Monitor::new(meta, cfg.clone(), hint));
    if recovered {
        monitor.note_checkpoint_recovery();
    }
    let stop_after: Option<u64> = flag(args, "stop-after-epochs")?;
    let result = drive_capture(
        &data,
        &mut monitor,
        resume,
        stop_after,
        |rep| print!("{}", rep.render()),
        |ck| {
            if let Some(p) = &ckpt_path {
                or_die(ck.write_atomic(p), "write checkpoint");
            }
        },
    );
    let Some(summary) = or_die(result, "monitor run") else {
        eprintln!(
            "stopped after {} epochs (checkpoint retained for resume)",
            stop_after.unwrap_or(0)
        );
        return Ok(ExitCode::SUCCESS);
    };
    print!("{}", summary.render());
    if let Some(out) = args.flags.get("bench-json") {
        let run = [
            ("epoch_secs", Val::U(epoch_secs)),
            ("max_conns", Val::U(cfg.pipeline.max_conns as u64)),
            ("max_pending", Val::U(cfg.pipeline.max_pending as u64)),
            ("epochs", Val::U(summary.totals.epochs)),
            ("evicted_conns", Val::U(summary.health.evicted_conns)),
            ("pending_dropped", Val::U(summary.health.pending_dropped)),
            ("checkpoint_recoveries", Val::U(summary.health.checkpoint_recoveries)),
        ];
        let doc = or_die(bench_json(&MONITOR, &run, Some(&summary.metrics), &[]), "bench json");
        or_die(validate_bench_json(&doc), "bench json self-check");
        or_die(std::fs::write(out, &doc), "write bench json");
        eprintln!("monitor metrics written to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Anonymize a capture record by record: each salvaged record is read
/// into one reused packet, rewritten in place and written out, so no copy
/// of the capture is held beside the input buffer.
fn cmd_anonymize(args: &Args) -> ExitCode {
    let (Some(input), Some(output)) = (args.positional.first(), args.positional.get(1)) else {
        return usage();
    };
    let key = args.flags.get("key").map_or("default-key", String::as_str);
    let data = or_die(std::fs::read(input), "read input pcap");
    // Salvage damage as `analyze` and `monitor` do; only a bad global header is fatal.
    let mut reader = or_die(RecoveringReader::new(&data).map_err(AnalysisError::Ingest), "read pcap");
    let out = or_die(File::create(output), "create output pcap");
    let mut w = or_die(PcapWriter::new(BufWriter::new(out), reader.snaplen()), "write pcap");
    let mut anon = Anonymizer::new(key);
    let mut pkt = TimedPacket::new(Timestamp::ZERO, Vec::new());
    let mut packets = 0u64;
    while let Some(r) = reader.next_record() {
        (pkt.ts, pkt.orig_len) = (r.ts, r.orig_len);
        pkt.frame.clear();
        pkt.frame.extend_from_slice(r.frame);
        anonymize_frame(&mut anon, &mut pkt.frame);
        or_die(w.write_packet(&pkt), "write pcap");
        packets += 1;
    }
    if !reader.stats().is_clean() {
        eprintln!("ingest health: {}", reader.stats());
    }
    or_die(w.finish(), "flush output");
    eprintln!("anonymized {packets} packets -> {output}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        let takes = ["[--scale S]", "[--keep-scanners]", "[--shards 0|1]", "[--epoch-secs N]"];
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        parse_args(&takes, &raw).expect("every flag is in the list")
    }

    #[test]
    fn a_valid_value_parses_and_an_absent_flag_is_none() {
        let a = args(&["trace.pcap", "--scale", "0.01", "--keep-scanners", "--shards", "1"]);
        assert_eq!(a.positional, ["trace.pcap"]);
        assert!(a.switches.contains("keep-scanners"));
        assert_eq!(flag::<f64>(&a, "scale"), Ok(Some(0.01)));
        assert_eq!(flag::<u64>(&a, "seed"), Ok(None));
        assert_eq!(shards(&a), Ok(1));
        assert_eq!(shards(&args(&[])), Ok(0));
    }

    #[test]
    fn a_mistyped_value_is_rejected_naming_flag_and_value() {
        let err = flag::<f64>(&args(&["--scale", "0,01"]), "scale").expect_err("0,01 is no f64");
        assert!(err.contains("--scale") && err.contains("0,01"), "{err}");
        let err = flag::<u64>(&args(&["--epoch-secs", "5m"]), "epoch-secs").expect_err("5m is no u64");
        assert!(err.contains("--epoch-secs") && err.contains("5m"), "{err}");
        let err = shards(&args(&["--shards", "two"])).expect_err("two is no count");
        assert!(err.contains("--shards") && err.contains("two"), "{err}");
    }

    #[test]
    fn shards_takes_only_the_inline_engine_or_one_lane() {
        let err = shards(&args(&["--shards", "2"])).expect_err("there is no second lane");
        assert!(err.contains("--shards 2"), "{err}");
    }
}
