//! Heap guard for the streaming workspace scan.
//!
//! A counting global allocator tracks live heap bytes. `lint_workspace`
//! lexes one file per task and keeps only counts and findings, so its
//! peak live heap is a few files' worth; `Workspace::load` holds every
//! file at once. The bound is relative to the second, measured in the
//! same test, so a growing tree cannot flake it.
//!
//! The scan runs on `ExecOptions::auto()` threads, two on a 2-core host,
//! where it peaked at 0.75–0.86 MB against 11.46 MB held. Each thread
//! adds about one file's working set: at 32 threads it read 2.13 MB,
//! still under the quarter bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sudc_lint::{lint_workspace, workspace_root, Workspace};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as a move: both blocks are live while it copies.
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live bytes `f` adds over what is live when it starts.
fn peak_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

// One test, so no other test allocates while a peak is measured.
#[test]
fn streaming_scan_peaks_under_a_quarter_of_the_loaded_workspace() {
    let root = workspace_root();
    let base = LIVE.load(Ordering::SeqCst);
    let ws = Workspace::load(&root).expect("workspace loads");
    let held = LIVE.load(Ordering::SeqCst) - base;
    let files = ws.files.len();
    drop(ws);

    let mut scanned = 0;
    let peak = peak_during(|| {
        let run = lint_workspace(&root, None).expect("workspace scans");
        scanned = run.files;
    });
    assert_eq!(scanned, files);
    assert!(
        peak < held / 4,
        "a scan of {files} files peaked at {peak} B live; the loaded workspace holds {held} B"
    );
}
