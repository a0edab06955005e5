//! Peak heap accounting for `peak_heap_mb`.
//!
//! The benchmark binary's global allocator forwards to the system
//! allocator and, only while [`measure`] runs, counts the bytes live at
//! once. Unlike the process's peak resident set, the count does not
//! depend on how the system allocator spreads memory over per-thread
//! arenas or when it returns freed pages, which on `search-400x32` moved
//! the resident peak by a whole 21 MB transfer slab from one run to the
//! next. Outside [`measure`] every allocation and free pays only one
//! relaxed load of a flag that nothing writes while the timed passes
//! run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Whether allocations are being counted.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest value `LIVE` reached.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator with live/peak byte counting while armed. The
/// counters are statistics that publish no other data, so relaxed
/// ordering suffices.
pub struct Counting;

fn grew(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// the atomics above and never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this type)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Runs `f` with allocations counted; returns its result and the most
/// bytes, in MiB, that allocations made during `f` held at once. Memory
/// allocated before the call does not count, so the figure is what `f`
/// needs on top of whatever the process already holds.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    let peak = PEAK.load(Ordering::Relaxed).max(0);
    (out, peak as f64 / f64::from(1u32 << 20))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_only_what_the_closure_holds_at_once() {
        let before = vec![0u8; 1 << 20];
        let (kept, peak) = measure(|| {
            drop(std::hint::black_box(vec![0u8; 3 << 20]));
            std::hint::black_box(vec![0u8; 2 << 20])
        });
        assert!((3.0..3.1).contains(&peak), "peak {peak} MiB");
        drop((before, kept));
    }
}
