//! A heap-allocation probe for benchmarks: a wrapping
//! [`GlobalAlloc`] that counts allocations made by
//! *opted-in* threads.
//!
//! The gate's steady-state claim — "keep-alive traffic allocates nothing" —
//! is only provable from inside the allocator. But a process-wide counter
//! would drown the signal in bench-client noise (the load generator
//! allocates freely), so counting is gated on a per-thread flag:
//!
//! 1. A binary that wants the numbers installs
//!    `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
//!    (only `perf_baseline` does; production binaries keep the system
//!    allocator untouched).
//! 2. Threads whose allocations matter — the gate's reactor threads — call
//!    [`track_current_thread`]`(true)` at startup. The reactor does this
//!    unconditionally: when the counting allocator is not installed the
//!    flag is a write to a thread-local bool that nothing reads.
//! 3. The bench diffs [`tracked_allocs`] around a traffic window and
//!    divides by requests served.
//!
//! Each opted-in thread also keeps its own count
//! ([`thread_tracked_allocs`]), so a check of one thread's allocations is
//! not disturbed by other threads that opt in at the same time — as the
//! tests of this module do, on parallel test threads.
//!
//! Only allocation *events* are counted (alloc, realloc, alloc_zeroed —
//! not dealloc): the claim under test is "the hot path does not go to the
//! allocator", and frees pair with allocations anyway.
//!
//! The flag lives in a `const`-initialized thread-local `Cell` so reading
//! it never allocates (a lazily-initialized TLS slot could recurse into
//! the allocator on first touch), and is read with `try_with` so
//! allocations during thread teardown — after TLS destructors ran — stay
//! safe instead of panicking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TRACKED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACKED: Cell<bool> = const { Cell::new(false) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Opts the current thread in (or out) of allocation counting. Cheap
/// enough to call unconditionally at thread start.
pub fn track_current_thread(on: bool) {
    let _ = TRACKED.try_with(|t| t.set(on));
}

/// Total allocation events by opted-in threads since process start (zero
/// unless a [`CountingAlloc`] is installed as the global allocator).
pub fn tracked_allocs() -> u64 {
    TRACKED_ALLOCS.load(Ordering::Relaxed)
}

/// The current thread's share of [`tracked_allocs`]: allocation events
/// counted while this thread was opted in.
pub fn thread_tracked_allocs() -> u64 {
    THREAD_ALLOCS.try_with(|n| n.get()).unwrap_or(0)
}

#[inline]
fn count() {
    if TRACKED.try_with(|t| t.get()).unwrap_or(false) {
        TRACKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// The counting wrapper around the system allocator. Zero-sized; install
/// with `#[global_allocator]` in binaries that want the numbers.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System` for memory management; the wrapper
// only adds a relaxed counter bump on allocation paths and never touches
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install `CountingAlloc`, so this thread's
    // count stays flat no matter what — which is itself the documented
    // contract for production binaries. The flag plumbing is still
    // exercisable. (The process total is not flat: the test below calls the
    // wrapper directly, possibly at the same time on another thread.)
    #[test]
    fn flag_round_trips_and_counter_is_flat_without_installation() {
        track_current_thread(true);
        let before = thread_tracked_allocs();
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(v.len(), 1000);
        assert_eq!(
            thread_tracked_allocs(),
            before,
            "counter moved without CountingAlloc installed"
        );
        track_current_thread(false);
    }

    // The wrapper itself is callable directly (not as the global
    // allocator) and counts only while the thread is opted in.
    #[test]
    fn wrapper_counts_only_opted_in_threads() {
        let a = CountingAlloc;
        let layout = Layout::from_size_align(64, 8).unwrap();

        track_current_thread(false);
        let before = thread_tracked_allocs();
        let total_before = tracked_allocs();
        // SAFETY: valid layout; the pointer is freed immediately below.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        assert_eq!(thread_tracked_allocs(), before, "untracked thread counted");

        track_current_thread(true);
        // SAFETY: as above.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
            let z = a.alloc_zeroed(layout);
            assert!(!z.is_null());
            let z2 = a.realloc(z, layout, 128);
            assert!(!z2.is_null());
            a.dealloc(z2, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(
            thread_tracked_allocs(),
            before + 3,
            "alloc + alloc_zeroed + realloc each count once; dealloc never"
        );
        // The process total includes them (and whatever other threads
        // counted meanwhile).
        assert!(tracked_allocs() >= total_before + 3);
        track_current_thread(false);
    }

    // Counts are per thread: a thread's events show in its own count and
    // the process total, never in another thread's count.
    #[test]
    fn counts_are_kept_per_thread_and_summed_in_the_total() {
        let a = CountingAlloc;
        let layout = Layout::from_size_align(32, 8).unwrap();
        let mine = thread_tracked_allocs();
        let total_before = tracked_allocs();
        let theirs = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    track_current_thread(true);
                    for _ in 0..5 {
                        // SAFETY: valid layout; freed right away.
                        unsafe {
                            let p = a.alloc(layout);
                            assert!(!p.is_null());
                            a.dealloc(p, layout);
                        }
                    }
                    track_current_thread(false);
                    thread_tracked_allocs()
                })
                .join()
                .unwrap()
        });
        assert_eq!(theirs, 5);
        assert_eq!(thread_tracked_allocs(), mine);
        assert!(tracked_allocs() >= total_before + 5);
    }
}
