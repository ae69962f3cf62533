//! Fixture for the E002 hot-map rule: this path is listed in
//! `HOT_MAP_FILES` (`checks.rs`), so constructing a std-SipHash `HashMap`
//! here must be flagged while the hasher-explicit form passes.

use std::collections::HashMap;
use std::hash::RandomState;

/// Violation: defaults to SipHash and an empty table on the packet path.
pub fn open_table() -> HashMap<u32, u32> {
    HashMap::new()
}

/// Clean: hasher chosen explicitly, capacity pre-sized.
pub fn open_table_sized() -> HashMap<u32, u32, RandomState> {
    HashMap::with_capacity_and_hasher(64, RandomState::new())
}
