//! `entreport` — end-to-end reproduction driver.
//!
//! Subcommands:
//! * `study`     — generate all five datasets, run every analysis, print
//!   every table and figure of the paper (optionally export CSVs).
//! * `generate`  — write one synthetic trace as a pcap file.
//! * `analyze`   — analyze a pcap file (ours or any Ethernet capture).
//! * `monitor`   — resident monitor mode: stream a capture through the
//!   pipeline emitting rolling per-epoch reports, with optional
//!   crash-safe checkpoints and bounded-state budgets.
//! * `anonymize` — prefix-preserving anonymization of a pcap file.
//! * `scaling`   — run the study once per shard count and export the
//!   multi-shard scaling curve (`BENCH_scaling.json`): the determinism
//!   gate (identical events signature at every shard count) plus the
//!   ingest-wall speedup curve.
//! * `packs`     — run the labeled scenario packs (base mix plus
//!   adversarial and modern-variant actors), score scanner removal
//!   against the ground-truth labels (precision/recall/F1), measure
//!   per-pack trace complexity (header-symbol entropy), and export the
//!   `ent-bench-packs/1` scoring document (`BENCH_packs.json`).
//! * `obs-check` — validate a bench export (pipeline, monitor, scaling
//!   or packs schema).
//! * `bench-compare` — gate a candidate bench export against a committed
//!   baseline (exact event/byte equality, one-sided +25 % wall check; for
//!   scaling documents, entry-for-entry determinism plus the speedup
//!   floor on machines with at least 4 cores).
#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use ent_core::metrics::{
    bench_json, compare_bench_json, validate_bench_json, Stage, Val, MONITOR, PACKS, PIPELINE,
    SCALING, WALL_TOLERANCE,
};
use ent_core::run::{run_datasets, StudyConfig};
use ent_core::run_pack;
use ent_core::study::build_report;
use ent_core::{
    capture_meta, drive_capture, Checkpoint, Monitor, MonitorConfig, PipelineConfig,
    PipelineMetrics,
};
use ent_gen::build::{build_site, generate_trace};
use ent_gen::dataset::{all_datasets, dataset, DatasetSpec};
use ent_gen::GenConfig;
use ent_pcap::{RecoveringReader, Trace, TraceMeta};
use ent_wire::Timestamp;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

/// Unwrap a CLI-level result or exit with a message. Failures here are
/// user-environment errors (bad path, full disk, truncated file), not bugs.
fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("entreport: {what}: {e}");
        std::process::exit(1);
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  entreport study [--scale S] [--seed N] [--threads N] [--shards N] [--datasets D0,D3] [--only 'table 9'] [--csv-dir DIR] [--keep-scanners] [--bench-json FILE.json]
  entreport scaling [--scale S] [--seed N] [--threads N] [--shard-counts 0,1,2,4,8] [--datasets D0,D3] [--out FILE.json]
  entreport packs [--scale S] [--seed N] [--threads N] [--shards N] [--packs base,sweep] [--out FILE.json]
  entreport generate --dataset D0 --subnet 3 [--pass 1] [--scale S] [--seed N] --out FILE.pcap
  entreport analyze FILE.pcap [--subnet N] [--name D0]
  entreport monitor FILE.pcap [--epoch-secs 300] [--checkpoint FILE.ckpt] [--max-conns N] [--max-pending N] [--stop-after-epochs N] [--name NAME] [--keep-scanners] [--bench-json FILE.json]
  entreport anonymize IN.pcap OUT.pcap --key SEED
  entreport obs-check FILE.json
  entreport bench-compare BASELINE.json CANDIDATE.json"
    );
    ExitCode::from(2)
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

fn parse_args(raw: &[String]) -> Args {
    let mut a = Args {
        positional: Vec::new(),
        flags: Default::default(),
        switches: Default::default(),
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    if let Some(v) = it.next() {
                        a.flags.insert(name.to_string(), v.clone());
                    }
                }
                _ => {
                    a.switches.insert(name.to_string());
                }
            }
        } else {
            a.positional.push(arg.clone());
        }
    }
    a
}

/// A flag's value parsed as `T`; `None` when absent or unparsable.
fn flag<T: std::str::FromStr>(args: &Args, name: &str) -> Option<T> {
    args.flags.get(name).and_then(|s| s.parse().ok())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    let args = parse_args(&raw[1..]);
    match cmd.as_str() {
        "study" => cmd_study(&args),
        "scaling" => cmd_scaling(&args),
        "packs" => cmd_packs(&args),
        "generate" => cmd_generate(&args),
        "analyze" => cmd_analyze(&args),
        "monitor" => cmd_monitor(&args),
        "anonymize" => cmd_anonymize(&args),
        "obs-check" => cmd_obs_check(&args),
        "bench-compare" => cmd_bench_compare(&args),
        _ => usage(),
    }
}

fn gen_config(args: &Args) -> GenConfig {
    GenConfig {
        scale: flag(args, "scale").unwrap_or(0.01),
        seed: flag(args, "seed").unwrap_or(1),
        hosts_per_subnet: flag(args, "hosts"),
    }
}

/// The datasets named by `--datasets D0,D3` (all five when absent).
fn selected_datasets(args: &Args) -> Vec<DatasetSpec> {
    let wanted: Option<Vec<&str>> = args.flags.get("datasets").map(|s| s.split(',').map(str::trim).collect());
    let keep = |d: &DatasetSpec| wanted.as_ref().is_none_or(|w| w.contains(&d.name));
    all_datasets().into_iter().filter(keep).collect()
}

fn cmd_study(args: &Args) -> ExitCode {
    let threads: usize = flag(args, "threads").unwrap_or(0);
    // An explicit --shards (including `--shards 0`, the serial escape
    // hatch) always wins; only when the flag is absent does the run
    // auto-shard the cores a pinned --threads leaves idle. Shard count is
    // a bench-comparability key, so gate scripts pass --shards 0.
    let shards = match flag(args, "shards") {
        Some(n) => n,
        None => ent_core::auto_shards(
            threads,
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        ),
    };
    let config = StudyConfig {
        gen: gen_config(args),
        pipeline: PipelineConfig {
            keep_scanners: args.switches.contains("keep-scanners"),
            shards,
            ..Default::default()
        },
        threads,
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
        "study wall {:.1}s ({:.0} packets/s worker throughput)",
        study_wall_ns as f64 / 1e9,
        total.packets_per_sec()
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
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            config.threads
        };
        let run = [
            ("scale", Val::F(config.gen.scale)),
            ("seed", Val::U(config.gen.seed)),
            ("threads", Val::U(threads as u64)),
            ("shards", Val::U(config.pipeline.shards as u64)),
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
    ExitCode::SUCCESS
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

/// The 4-shard ingest-wall speedup over 1 shard a scaling document asks
/// of the machine that produced it (`bench-compare` enforces it on a
/// candidate with at least 4 cores).
const SCALING_FLOOR: f64 = 1.6;

/// Run the study once per shard count (same scale/seed/threads) and
/// export the scaling curve as an `ent-bench-scaling/1` document. The
/// built-in self-check is the determinism gate: every shard count must
/// produce the identical events signature, packet and trace totals, or
/// the command fails. Defaults are the gate configuration: scale 0.01,
/// seed 2005, 1 worker thread, shard counts 0 (serial), 1, 2, 4, 8.
fn cmd_scaling(args: &Args) -> ExitCode {
    let mut gen = gen_config(args);
    if !args.flags.contains_key("seed") {
        gen.seed = 2005; // the scaling gate's seed, not `study`'s default
    }
    let threads: usize = flag(args, "threads").unwrap_or(1);
    let counts: Vec<usize> = match args.flags.get("shard-counts") {
        Some(s) => {
            let parsed: Option<Vec<usize>> =
                s.split(',').map(|x| x.trim().parse().ok()).collect();
            match parsed {
                Some(v) if !v.is_empty() => v,
                _ => {
                    eprintln!("entreport: bad --shard-counts {s:?} (want e.g. 0,1,2,4,8)");
                    return ExitCode::from(2);
                }
            }
        }
        None => vec![0, 1, 2, 4, 8],
    };
    let specs = selected_datasets(args);
    eprintln!(
        "scaling curve: scale={} seed={} threads={threads} shard counts {counts:?}",
        gen.scale, gen.seed
    );
    let mut entries = Vec::new();
    for &shards in &counts {
        let config = StudyConfig {
            gen,
            pipeline: PipelineConfig {
                shards,
                ..Default::default()
            },
            threads,
        };
        let studies = run_datasets(&specs, &config);
        let mut total = PipelineMetrics::default();
        for da in &studies {
            total.absorb(&da.pipeline_metrics());
        }
        eprintln!(
            "  shards={shards}: ingest wall {:.1} ms (dispatcher send-blocked {:.1} ms), {} packets, signature {:016x}",
            total.stages[Stage::ShardIngest].wall_ns as f64 / 1e6,
            total.stages[Stage::Backpressure].wall_ns as f64 / 1e6,
            total.packets(),
            total.events_signature_hash(),
        );
        entries.push(vec![
            ("shards", Val::U(shards as u64)),
            ("ingest_wall_us", Val::F(total.stages[Stage::ShardIngest].wall_us())),
            ("frame_parse_wall_us", Val::F(total.stages[Stage::FrameParse].wall_us())),
            ("flow_ingest_wall_us", Val::F(total.stages[Stage::FlowIngest].wall_us())),
            ("packets", Val::U(total.packets())),
            ("traces", Val::U(total.traces)),
            ("peak_open_conns", Val::U(total.peak_open_conns)),
            ("signature", Val::S(format!("{:016x}", total.events_signature_hash()))),
        ]);
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let run = [
        ("scale", Val::F(gen.scale)),
        ("seed", Val::U(gen.seed)),
        ("threads", Val::U(threads as u64)),
        ("cores", Val::U(cores as u64)),
        ("floor", Val::F(SCALING_FLOOR)),
    ];
    let doc = or_die(bench_json(&SCALING, &run, None, &entries), "scaling json");
    // The self-check is the determinism half of the gate: it fails if any
    // shard count produced a different signature or packet total.
    or_die(validate_bench_json(&doc), "scaling determinism self-check");
    match args.flags.get("out") {
        Some(path) => {
            or_die(std::fs::write(path, &doc), "write scaling json");
            eprintln!("scaling curve written to {path}");
        }
        None => print!("{doc}"),
    }
    ExitCode::SUCCESS
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
/// configuration: scale 0.01, seed 2005, 1 worker thread, serial shards.
fn cmd_packs(args: &Args) -> ExitCode {
    let mut gen = gen_config(args);
    if !args.flags.contains_key("seed") {
        gen.seed = 2005; // the pack gate's seed, matching `scaling`
    }
    let threads: usize = flag(args, "threads").unwrap_or(1);
    let shards: usize = flag(args, "shards").unwrap_or(0);
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
        pipeline: PipelineConfig {
            shards,
            ..Default::default()
        },
        threads,
    };
    eprintln!(
        "scenario packs: scale={} seed={} threads={threads} shards={shards} packs={names:?}",
        gen.scale, gen.seed
    );
    println!(
        "{:<10} {:>7} {:>9} {:>8} {:>8} {:>5} {:>5} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "pack", "traces", "packets", "attack", "sources", "tp", "fp", "fn", "prec",
        "recall", "f1", "H(sym)", "H(pair)"
    );
    let mut entries = Vec::new();
    for name in names {
        let Some(pack) = ent_gen::packs::pack(name) else {
            eprintln!("entreport: unknown pack {name:?} (want one of {:?})", ent_gen::PACK_NAMES);
            return ExitCode::from(2);
        };
        let report = run_pack(&pack, &config);
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
        ("threads", Val::U(threads as u64)),
        ("shards", Val::U(shards as u64)),
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
    ExitCode::SUCCESS
}

fn cmd_generate(args: &Args) -> ExitCode {
    let Some(name) = args.flags.get("dataset") else {
        return usage();
    };
    let Some(spec) = dataset(name) else {
        eprintln!("unknown dataset {name} (use D0..D4)");
        return ExitCode::from(2);
    };
    let subnet: u16 = flag(args, "subnet").unwrap_or(spec.monitored.start);
    let pass: u8 = flag(args, "pass").unwrap_or(1);
    let Some(out) = args.flags.get("out") else {
        return usage();
    };
    let config = gen_config(args);
    let (site, wan) = build_site(&spec, &config);
    let trace = generate_trace(&site, &wan, &spec, subnet, pass, &config);
    let f = or_die(File::create(out), "create output file");
    or_die(trace.write_pcap(BufWriter::new(f)), "write pcap");
    eprintln!(
        "wrote {}: {} packets, {} wire bytes, snaplen {}",
        out,
        trace.packets.len(),
        trace.wire_bytes(),
        trace.meta.snaplen
    );
    ExitCode::SUCCESS
}

fn cmd_analyze(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return usage();
    };
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut meta = TraceMeta {
        dataset: args
            .flags
            .get("name")
            .map(|s| s.as_str().into())
            .unwrap_or_else(|| "pcap".into()),
        subnet: flag(args, "subnet").unwrap_or(0),
        pass: 1,
        duration: Timestamp::from_secs(3_600),
        snaplen: 1500,
        link_capacity_bps: 100_000_000,
    };
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
    // Stream the capture through the pipeline, salvaging everything
    // readable from a possibly damaged file; only an unusable global
    // header is fatal.
    let a = match ent_core::analyze_capture(&data, meta, &PipelineConfig::default()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
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
    let mut by_cat: std::collections::HashMap<&str, (u64, u64)> = Default::default();
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
    ExitCode::SUCCESS
}

/// Validate a `BENCH_pipeline.json` export: schema identifier, required
/// fields, and nonzero wall time and events for every mandatory stage.
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
    match validate_bench_json(&text) {
        Ok(s) => {
            println!(
                "{path}: ok — {} traces, {} packets, study wall {:.1}s",
                s.traces,
                s.packets,
                s.study_wall_us / 1e6
            );
            for (name, wall_us, events) in &s.stages {
                println!("  {name:<16}{:>12.1} ms{:>14} events", wall_us / 1e3, events);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Gate a candidate `BENCH_pipeline.json` against a committed baseline:
/// exact event/byte equality on every mandatory stage plus a one-sided
/// wall-time check (see `ent_core::metrics::compare_bench_json`).
/// `ENT_BENCH_WAIVER=1` waives the wall half for noisy hardware.
fn cmd_bench_compare(args: &Args) -> ExitCode {
    let (Some(base_path), Some(cand_path)) =
        (args.positional.first(), args.positional.get(1))
    else {
        return usage();
    };
    let waived = std::env::var("ENT_BENCH_WAIVER").is_ok_and(|v| !v.is_empty() && v != "0");
    let baseline = or_die(std::fs::read_to_string(base_path), "read baseline json");
    let candidate = or_die(std::fs::read_to_string(cand_path), "read candidate json");
    match compare_bench_json(&baseline, &candidate, !waived) {
        Ok(report) => {
            print!("{report}");
            if waived {
                println!("note: wall-time checks waived via ENT_BENCH_WAIVER");
            }
            println!("bench-compare: ok ({cand_path} vs {base_path}, tolerance +{:.0}%)",
                WALL_TOLERANCE * 100.0);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-compare: FAILED ({cand_path} vs {base_path}):\n{e}");
            eprintln!(
                "hint: on noisy hardware, re-run with ENT_BENCH_WAIVER=1 to skip the \
                 wall-time half of the gate (event/byte determinism is always enforced); \
                 if the regression is real and intended, regenerate the committed baseline \
                 with `entreport study --bench-json BENCH_pipeline.json`"
            );
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
fn cmd_monitor(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return usage();
    };
    let data = or_die(std::fs::read(path), "read capture");
    let epoch_secs: u64 = flag(args, "epoch-secs").unwrap_or(300);
    if epoch_secs == 0 {
        eprintln!("entreport: --epoch-secs must be nonzero");
        return ExitCode::from(2);
    }
    let name = args.flags.get("name").map(String::as_str).unwrap_or("monitor");
    let ckpt_path = args.flags.get("checkpoint").map(std::path::PathBuf::from);
    let cfg = MonitorConfig {
        epoch_secs,
        checkpoints: ckpt_path.is_some(),
        pipeline: PipelineConfig {
            keep_scanners: args.switches.contains("keep-scanners"),
            max_conns: flag(args, "max-conns").unwrap_or(0),
            max_pending: flag(args, "max-pending").unwrap_or(0),
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
    let stop_after: Option<u64> = flag(args, "stop-after-epochs");
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
        return ExitCode::SUCCESS;
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
    ExitCode::SUCCESS
}

fn cmd_anonymize(args: &Args) -> ExitCode {
    let (Some(input), Some(output)) = (args.positional.first(), args.positional.get(1)) else {
        return usage();
    };
    let key = args
        .flags
        .get("key")
        .cloned()
        .unwrap_or_else(|| "default-key".into());
    let f = or_die(File::open(input), "open input pcap");
    let meta = TraceMeta {
        dataset: "anon".into(),
        subnet: 0,
        pass: 1,
        duration: Timestamp::from_secs(3_600),
        snaplen: 1500,
        link_capacity_bps: 100_000_000,
    };
    let trace = or_die(Trace::read_pcap(BufReader::new(f), meta), "read pcap");
    let anon = ent_anon::anonymize_trace(&trace, &key);
    let out = or_die(File::create(output), "create output pcap");
    let mut w = BufWriter::new(out);
    or_die(anon.write_pcap(&mut w), "write pcap");
    or_die(w.flush(), "flush output");
    eprintln!("anonymized {} packets -> {}", anon.packets.len(), output);
    ExitCode::SUCCESS
}
