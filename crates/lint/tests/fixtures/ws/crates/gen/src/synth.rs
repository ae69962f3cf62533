//! Fixture for the E002 hot-allocation rule: this path is listed in
//! `HOT_ALLOC_FILES` (`checks.rs`), so per-call `Vec` allocation here must
//! be flagged while the reused-buffer forms pass.

/// Violation: a fresh growable Vec per emitted frame.
pub fn emit_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    frame.push(0u8);
    frame
}

/// Violation: `vec!` macro allocates per call too.
pub fn emit_padding(n: usize) -> Vec<u8> {
    vec![0u8; n]
}

/// Violation: `.to_vec()` copies the slice into a fresh allocation.
pub fn emit_copy(payload: &[u8]) -> Vec<u8> {
    payload.to_vec()
}

/// Clean: writing through a caller-owned reused buffer is the accepted
/// form — the buffer's capacity survives across calls.
pub fn emit_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.clear();
    buf.extend_from_slice(payload);
}

/// Clean: a one-time pre-sized setup buffer is out of scope; it is the
/// empty per-call Vec that churns, not sized construction.
pub fn setup_scratch(cap: usize) -> Vec<u8> {
    Vec::with_capacity(cap)
}
