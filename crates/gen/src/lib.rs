//! # ent-gen — synthetic enterprise traffic generation
//!
//! A calibrated stand-in for the LBNL traces of Pang et al. (IMC 2005).
//! The generator models the monitored site (two routers, 18–22 subnets,
//! placed servers), synthesizes application sessions that emit *real
//! protocol payload bytes* via the `ent-proto` encoders, converts them to
//! timestamped Ethernet frames with genuine TCP dynamics (`synth`), and
//! assembles per-subnet traces exactly the way the paper's capture rig
//! did — including snaplen truncation, capture drops and scanner traffic.
//!
//! Per-dataset calibration targets live in [`dataset`]; each knob is
//! traced to the paper table/figure it reproduces.
//!
//! ```
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
//! generate_trace_into(&site, &wan, &spec, 3, 1, &config, &mut arena);
//! assert!(!arena.is_empty());
//! // The trace streams in time order.
//! let (mut frames, mut last) = (arena.stream(), None);
//! while let Some((ts, _frame, _wire_len, _label)) = frames.next_frame() {
//!     assert!(last <= Some(ts));
//!     last = Some(ts);
//! }
//! ```

pub mod apps;
pub mod build;
pub mod dataset;
pub mod distr;
pub mod network;
pub mod packs;
pub mod scaling;
pub mod synth;

pub use build::GenConfig;
pub use dataset::{DatasetSpec, ALL_DATASETS};
pub use network::{Role, Site, WanPool};
pub use packs::{ScenarioPack, PACK_NAMES};
