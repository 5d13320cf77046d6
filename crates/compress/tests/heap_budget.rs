//! Heap-budget test: pins the peak live heap of each Table 4 cell and of
//! one `lossy` point.
//!
//! A counting global allocator tracks live bytes. Allocation sizes are a
//! pure function of the input, so the peaks are exact and repeat from
//! run to run; `BUDGETS` holds the measured peaks, and a cell fails once
//! it passes 110 % of its own. `table4` and `lossy` run their cells on
//! several threads at once, and the headroom for those threads' working
//! sets comes from these budgets: a codec change that grows a working
//! set past one fails here, not as a peak-RSS drift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use compress::quality::dwt_rate_distortion;
use compress::CodecKind;
use imagery::synth::{Scene, SceneKind};

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

/// Each cell's measured peak in bytes, in measuring order. Before the
/// match finder's heads became `u16` offsets, its tokens 4 bytes grown
/// to the count and LZW's dictionary sized to the codes, the Table 4
/// cells peaked at RGB JPEG2000 729,770, LZW 884,736, Zip 987,136 and
/// PNG 1,099,072, and SAR JPEG2000 631,368, LZW 787,200, Zip 765,952
/// and PNG 803,776; the `lossy` point at 1,020,656.
const BUDGETS: [(&str, usize); 13] = [
    ("RGB/JPEG2000", 619_344),
    ("RGB/LZW", 491_520),
    ("RGB/Zip", 655_360),
    ("RGB/RLE", 165_912),
    ("RGB/PNG", 766_720),
    ("RGB/CCSDS", 197_144),
    ("SAR/JPEG2000", 473_356),
    ("SAR/LZW", 197_376),
    ("SAR/Zip", 460_288),
    ("SAR/RLE", 18_440),
    ("SAR/PNG", 497_536),
    ("SAR/CCSDS", 12_808),
    ("lossy/urban/0", 973_336),
];

// One test, so no other test allocates while a peak is measured.
#[test]
fn codec_working_sets_stay_within_budget() {
    let mut measured: Vec<(String, usize)> = Vec::new();
    // A Table 4 cell: one codec over the three scenes of its row.
    for (row, kind) in [("RGB", SceneKind::UrbanRgb), ("SAR", SceneKind::SarOcean)] {
        let scenes: Vec<_> = [11u64, 23, 47]
            .iter()
            .map(|&s| Scene::new(kind, s).render(192, 192))
            .collect();
        for ck in CodecKind::ALL {
            let codec = ck.raster_codec();
            let peak = peak_during(|| {
                for img in &scenes {
                    std::hint::black_box(codec.raster_ratio(img));
                }
            });
            measured.push((format!("{row}/{}", ck.label()), peak));
        }
    }
    // A `lossy` point: lift, encode, decode and score one shift.
    let img = Scene::new(SceneKind::UrbanRgb, 17).render(192, 192);
    let peak = peak_during(|| {
        std::hint::black_box(dwt_rate_distortion(&img, 0).expect("round-trips"));
    });
    measured.push(("lossy/urban/0".to_string(), peak));

    let labels: Vec<&str> = measured.iter().map(|(l, _)| l.as_str()).collect();
    let want: Vec<&str> = BUDGETS.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, want, "cells measured");
    let over: Vec<String> = measured
        .iter()
        .zip(BUDGETS)
        .filter(|&((_, peak), (_, budget))| *peak > budget + budget / 10)
        .map(|((label, peak), (_, budget))| format!("{label}: {peak} B > 110 % of {budget} B"))
        .collect();
    assert!(over.is_empty(), "peak live heap over budget: {over:#?}");
}
