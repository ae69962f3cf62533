//! # ent-core — the paper's analyses
//!
//! Reproduces every table and figure of *A First Look at Modern
//! Enterprise Traffic* (Pang et al., IMC 2005) over traces from `ent-gen`
//! (or any pcap loaded via `ent-pcap`): the broad traffic breakdowns of
//! §3, the origin/locality study of §4, the per-application
//! characterizations of §5 (web, email, name services, Windows services,
//! network file systems, backup), and the load assessment of §6.
//!
//! Flow: [`pipeline::analyze_trace`] turns a trace into a
//! [`records::TraceAnalysis`]; the [`analyses`] modules aggregate a
//! dataset's trace analyses into table/figure structs; [`report`] renders
//! them in the paper's layout; [`run`] orchestrates the whole study
//! (generation → analysis, parallel across traces).
//!
//! ```
//! use ent_core::{analyze_trace, PipelineConfig};
//! use ent_gen::build::{build_site, generate_trace};
//! use ent_gen::{dataset, GenConfig};
//!
//! let spec = dataset::dataset("D0").unwrap();
//! let config = GenConfig {
//!     scale: 0.002,
//!     seed: 1,
//!     hosts_per_subnet: Some(8),
//! };
//! let (site, wan) = build_site(&spec, &config);
//! let trace = generate_trace(&site, &wan, &spec, 3, 1, &config);
//! let analysis = analyze_trace(&trace, &PipelineConfig::default());
//! assert!(!analysis.conns.is_empty());
//! assert_eq!(analysis.packets, trace.packets.len() as u64);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Table-rendering helpers pass (label, getter) arrays whose types are
// verbose but local and single-use; naming them would add noise.
#![allow(clippy::type_complexity)]

pub mod analyses;
pub mod checkpoint;
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
pub use pipeline::{analyze_capture, analyze_trace, PipelineConfig};
pub use records::{IngestHealth, TraceAnalysis};
pub use run::{auto_shards, run_dataset, run_datasets, run_study, DatasetAnalysis, StudyConfig};
pub use study::{build_report, StudyReport};
