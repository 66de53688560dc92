//! A counting global allocator: inert until switched on, so the timed
//! passes pay one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting began; memory that
/// was allocated earlier and freed now takes it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

fn count_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            count_alloc(layout.size());
        }
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees for the allocator it was obtained from.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            count_alloc(new_size);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was allocated between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK_LIVE.store(0, Relaxed);
    ON.store(true, Relaxed);
}

pub fn stop() -> AllocCounts {
    ON.store(false, Relaxed);
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Relaxed).max(0) as u64,
    }
}

/// Tells glibc's malloc to keep freed memory instead of returning it to
/// the kernel: large blocks come from the heap rather than from `mmap`,
/// and the heap's top is not trimmed between passes.
///
/// With the defaults every pass maps, faults in and unmaps its large
/// vectors again, and the page-fault path follows the sandbox kernel's
/// memory-management activity: `kernel-stress` pass times sat on two
/// levels 12 % apart, each lasting 3 to 20 s, which no statistic over one
/// run's timed section removes. With the heap kept, the levels are 6 %
/// apart and the spread across runs is 1 % (README.md, "Steadiness").
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores allocator parameters; it is called at
    // the top of `main`, before the process has a second thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        mallopt(M_TOP_PAD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_heap() {}
