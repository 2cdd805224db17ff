//! The benchmark's own counting allocator: always installed, so
//! `allocs_per_op`, `alloc.bytes_per_op` and `bytes_per_conn` are taken
//! with the same ruler on every commit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator with three relaxed counters.
pub struct CountingAlloc;

// SAFETY: every operation is delegated unchanged to `System`; the only
// additions are relaxed counter updates, so `GlobalAlloc`'s contract is
// inherited from `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`; `new_size`
        // is the caller's to vouch for.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_alloc(new_size);
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// Totals since process start.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Heap bytes live right now (requested minus freed).
pub fn live_bytes() -> u64 {
    // Freed is read first: a concurrent alloc+free pair between the two
    // loads can then only overstate the figure, never wrap it.
    let freed = FREED_BYTES.load(Ordering::Relaxed);
    ALLOC_BYTES.load(Ordering::Relaxed).saturating_sub(freed)
}
