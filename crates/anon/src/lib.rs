//! # ent-anon — trace anonymization
//!
//! The paper's authors released their traces "in anonymized form" using
//! tcpmkpub-style prefix-preserving address anonymization. This crate
//! reproduces that capability: a keyed, deterministic, prefix-preserving
//! IPv4 mapping (two addresses sharing an n-bit prefix map to addresses
//! sharing exactly an n-bit prefix), MAC anonymization, and frame
//! rewriting with checksum repair. A capture is anonymized record by
//! record: each frame the recovering pcap reader salvages is rewritten in
//! place with [`anonymize_frame`] and written out (`entreport anonymize`).
//!
//! The keyed bit-PRF is SipHash-2-4, implemented from scratch (no external
//! crypto dependency; SipHash is compact and well-suited to per-bit PRF
//! use — cryptographic strength beyond trace-release needs is a non-goal).
//!
//! ```
//! use ent_anon::prefix::{common_prefix_len, Anonymizer};
//! use ent_wire::ipv4::Addr;
//!
//! let mut anon = Anonymizer::new("release-key");
//! let (a, b) = (Addr::new(131, 243, 7, 9), Addr::new(131, 243, 7, 200));
//! let (x, y) = (anon.ip(a), anon.ip(b));
//! assert_ne!(x, a);
//! // Two hosts on the same /24 stay on a common /24 — and nothing more.
//! assert_eq!(common_prefix_len(x, y), common_prefix_len(a, b));
//! ```

pub mod prefix;
pub mod siphash;
pub mod trace;

pub use prefix::Anonymizer;
pub use trace::anonymize_frame;
