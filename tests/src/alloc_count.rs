//! The counting global allocator behind the allocation pins
//! (`alloc_pin.rs`, `gen_alloc_pin.rs`) and the monitor soak test.
//!
//! It counts **per thread**: only allocations made by the thread that
//! called [`start`] land in its window — never libtest's main-thread
//! bookkeeping or a sibling test — so the pins hold under any
//! `--test-threads` interleaving. A test binary installs it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
//!
//! This is the one sanctioned use of `unsafe` in the workspace (the
//! `GlobalAlloc` trait has no safe incantation); the allocator defers
//! entirely to `System` and only bumps thread-local counters.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, plus per-thread counting while a window is open.
pub struct CountingAlloc;

// `const`-initialized and destructor-free, so touching them from inside
// the allocator neither allocates nor races thread teardown.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

// Only `alloc`/`dealloc` are overridden: the default `realloc` and
// `alloc_zeroed` route through them, so every byte is counted exactly once
// however it was obtained.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCS.set(ALLOCS.get() + 1);
            NET_BYTES.set(NET_BYTES.get() + layout.size() as i64);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.get() {
            NET_BYTES.set(NET_BYTES.get() - layout.size() as i64);
        }
        // SAFETY: forwarded unchanged; `ptr` came from `System.alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Open this thread's counting window with both counters at zero.
pub fn start() {
    ALLOCS.set(0);
    NET_BYTES.set(0);
    COUNTING.set(true);
}

/// Close this thread's window and return the allocations it saw.
pub fn stop() -> u64 {
    COUNTING.set(false);
    ALLOCS.get()
}

/// Bytes allocated minus bytes freed by this thread since [`start`].
pub fn net_bytes() -> i64 {
    NET_BYTES.get()
}
