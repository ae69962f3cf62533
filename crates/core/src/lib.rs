//! # ent-core — the paper's analyses
//!
//! Reproduces every table and figure of *A First Look at Modern
//! Enterprise Traffic* (Pang et al., IMC 2005) over traces from `ent-gen`
//! (or any pcap loaded via `ent-pcap`): the broad traffic breakdowns of
//! §3, the origin/locality study of §4, the per-application
//! characterizations of §5 (web, email, name services, Windows services,
//! network file systems, backup), and the load assessment of §6.
//!
//! Flow: [`pipeline::analyze_arena`] turns a generated trace (and
//! [`pipeline::analyze_capture`] a pcap file) into a
//! [`records::TraceAnalysis`]; the [`analyses`] modules aggregate a
//! dataset's trace analyses into table/figure structs; [`report`] renders
//! them in the paper's layout; [`run`] orchestrates the whole study
//! (generation → analysis, parallel across traces).
//!
//! ```
//! use ent_core::{analyze_arena, PipelineConfig};
//! use ent_gen::build::{build_site, generate_trace_into};
//! use ent_gen::{dataset, GenConfig};
//! use ent_pcap::PacketArena;
//!
//! let spec = dataset::dataset("D0").unwrap();
//! let config = GenConfig {
//!     scale: 0.002,
//!     seed: 1,
//!     hosts_per_subnet: Some(8),
//! };
//! let (site, wan) = build_site(&spec, &config);
//! let mut arena = PacketArena::unbounded();
//! let (meta, _) = generate_trace_into(&site, &wan, &spec, 3, 1, &config, &mut arena);
//! let analysis = analyze_arena(&meta, &mut arena, &PipelineConfig::default());
//! assert!(!analysis.conns.is_empty());
//! assert_eq!(analysis.packets, arena.len() as u64);
//! ```

// E001 (DESIGN §6a): ingest code reads bytes through `get`, fixed-size
// chunks or slice patterns, never a panicking index.
#![deny(clippy::indexing_slicing)]

// Table-rendering helpers pass (label, getter) arrays whose types are
// verbose but local and single-use; naming them would add noise.
#![allow(clippy::type_complexity)]

pub mod analyses;
pub mod checkpoint;
pub mod claims;
pub mod error;
pub mod metrics;
pub mod monitor;
pub mod packs;
pub mod pipeline;
pub mod records;
pub mod report;
pub mod run;
pub mod scanners;
mod shard;
pub mod small;
pub mod stats;
pub mod study;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use ent_flow::fasthash;
pub use error::{AnalysisError, BenchJsonError};
pub use monitor::{
    capture_meta, drive_capture, EpochReport, Monitor, MonitorConfig, MonitorSummary,
    MonitorTotals,
};
pub use metrics::{PipelineMetrics, StageStat, StageTimer};
pub use packs::{run_all_packs, run_pack, Complexity, PackReport, PackScore};
pub use pipeline::{analyze_arena, analyze_capture, PipelineConfig};
pub use records::{IngestHealth, TraceAnalysis};
pub use run::{run_dataset, run_datasets, run_study, DatasetAnalysis, StudyConfig};
pub use study::{build_report, StudyReport};
