//! Dataset-level analyses, one module per paper section/table/figure.

// Report bytes must not follow hash iteration order (clippy.toml).
#![deny(clippy::disallowed_types)]

pub mod app_locality;
pub mod appmix;
pub mod backup;
pub mod email;
pub mod load;
pub mod locality;
pub mod name;
pub mod netfile;
pub mod netlayer;
pub mod origins;
pub mod scan_study;
pub mod summary;
pub mod transport;
pub mod variability;
pub mod web;
pub mod websessions;
pub mod windows;

use crate::records::TraceAnalysis;
use ent_proto::{well_known, AppProtocol, Transport};

/// A whole dataset's trace analyses.
pub type DatasetTraces = [TraceAnalysis];

/// Web service ports treated as HTTP for connection-level analyses: the
/// registry's TCP ports for [`AppProtocol::Http`].
pub fn is_http_port(port: u16) -> bool {
    well_known(port, Transport::Tcp) == Some(AppProtocol::Http)
}
