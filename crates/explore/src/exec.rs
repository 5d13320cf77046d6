//! The deterministic parallel executor behind [`map`] and the sweeps.
//!
//! Threads self-schedule chunks of the item index range from a shared
//! atomic cursor (central work stealing: a fast thread keeps grabbing
//! chunks a static partition would have given to a slow one). The
//! calling thread is one of them. Each chunk's results are put back at
//! the chunk's position, so the merged output is byte-identical to a
//! sequential run for any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cache::{Cache, Cacheable};
use crate::space::Space;

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads, the caller included; `1` runs inline on the
    /// caller.
    pub threads: usize,
}

impl ExecOptions {
    /// Single-threaded execution.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// A fixed thread count.
    pub fn threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// One thread per available core.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self { threads }
    }

    /// Items per scheduling chunk: `len / (threads × 8)`, at least 1.
    /// Eight chunks per thread keep the tail balanced without
    /// contending on the cursor.
    fn chunk_for(&self, len: usize) -> usize {
        (len / (self.threads * 8)).max(1)
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self::sequential()
    }
}

/// What a sweep did and how fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Points in the space.
    pub points: usize,
    /// Points actually evaluated (≠ `points` on a warm cache).
    pub evaluated: usize,
    /// Points answered from the cache.
    pub cache_hits: usize,
    /// Chunks a thread claimed beyond an even static split — a measure
    /// of how much dynamic scheduling rebalanced the load.
    pub steals: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time of the evaluate-and-merge phase.
    pub wall: Duration,
}

impl SweepStats {
    /// Evaluated points per wall-second (0 when nothing ran).
    pub fn points_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.evaluated as f64 / secs
        } else {
            0.0
        }
    }
}

/// Results (in space order) plus execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<R> {
    /// One result per space point, in space order.
    pub results: Vec<R>,
    /// Execution statistics.
    pub stats: SweepStats,
}

/// Evaluates `eval` over the whole space, in parallel when
/// `opts.threads > 1`. Results come back in space order regardless of
/// thread count or scheduling.
pub fn sweep<P, R, F>(space: &Space<P>, opts: &ExecOptions, eval: F) -> SweepOutcome<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let mut span = telemetry::span!("explore.sweep", space = space.name(), points = space.len());
    // lint:allow(wall-clock-in-model) throughput stats time the harness, not the model
    let started = Instant::now();
    let (results, steals) = run(space.points(), opts, eval);
    let stats = SweepStats {
        points: space.len(),
        evaluated: space.len(),
        cache_hits: 0,
        steals,
        threads: opts.threads.max(1),
        wall: started.elapsed(),
    };
    record_span(&mut span, &stats);
    SweepOutcome { results, stats }
}

/// Like [`sweep`], but memoized: cache hits are returned without
/// evaluation, misses are evaluated in parallel and stored back. Call
/// [`Cache::save`] afterwards to persist. A fully warm cache evaluates
/// zero points and still returns results in space order.
pub fn sweep_cached<P, R, F>(
    space: &Space<P>,
    opts: &ExecOptions,
    cache: &mut Cache,
    eval: F,
) -> SweepOutcome<R>
where
    P: Sync,
    R: Cacheable + Send,
    F: Fn(&P) -> R + Sync,
{
    let mut span = telemetry::span!("explore.sweep", space = space.name(), points = space.len());
    // lint:allow(wall-clock-in-model) throughput stats time the harness, not the model
    let started = Instant::now();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(space.len());
    let mut misses: Vec<usize> = Vec::new();
    for (i, (id, _)) in space.iter().enumerate() {
        let hit = cache.get::<R>(id);
        if hit.is_none() {
            misses.push(i);
        }
        slots.push(hit);
    }
    let cache_hits = space.len() - misses.len();
    let (fresh, steals) = run(&misses, opts, |&i| eval(space.point(i)));
    let evaluated = fresh.len();
    for (&i, result) in misses.iter().zip(fresh) {
        cache.put(space.id(i), &result);
        slots[i] = Some(result);
    }
    let results: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(
        results.len(),
        space.len(),
        "every slot filled by cache or evaluation"
    );
    let stats = SweepStats {
        points: space.len(),
        evaluated,
        cache_hits,
        steals,
        threads: opts.threads.max(1),
        wall: started.elapsed(),
    };
    record_span(&mut span, &stats);
    SweepOutcome { results, stats }
}

fn record_span(span: &mut telemetry::Span, stats: &SweepStats) {
    span.record("evaluated", stats.evaluated as u64);
    span.record("cache_hits", stats.cache_hits as u64);
    span.record("steals", stats.steals as u64);
    span.record("threads", stats.threads as u64);
    span.record("points_per_sec", stats.points_per_sec());
}

/// Evaluates `f` on every item, in parallel when `opts.threads > 1`,
/// and returns the results in item order, whatever the thread count or
/// scheduling. The calling thread works as one of the `opts.threads`,
/// so one item, or one thread, runs inline. A panic in `f` is re-raised
/// on the caller with its own payload once every thread has stopped.
pub fn map<T, R, F>(items: &[T], opts: &ExecOptions, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run(items, opts, f).0
}

/// [`map`], plus the steal count.
fn run<T, R, F>(items: &[T], opts: &ExecOptions, f: F) -> (Vec<R>, usize)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = opts.threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (items.iter().map(f).collect(), 0);
    }

    let chunk = opts.chunk_for(n);
    let total_chunks = n.div_ceil(chunk);
    let fair_share = total_chunks.div_ceil(threads);
    let cursor = AtomicUsize::new(0);
    // One worker's share: the chunks it claimed, as (start, results).
    let work = || {
        let mut chunks: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            chunks.push((
                start,
                items[start..(start + chunk).min(n)]
                    .iter()
                    .map(&f)
                    .collect(),
            ));
        }
        chunks
    };

    let per_thread: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut per_thread = vec![work()];
        per_thread.extend(handles.into_iter().map(|h| match h.join() {
            Ok(v) => v,
            // Re-raise the worker's own panic payload instead of
            // minting a new one here.
            Err(payload) => std::panic::resume_unwind(payload),
        }));
        per_thread
    });

    let steals = per_thread
        .iter()
        .map(|chunks| chunks.len().saturating_sub(fair_share))
        .sum();
    let mut chunks: Vec<(usize, Vec<R>)> = per_thread.into_iter().flatten().collect();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let results: Vec<R> = chunks.into_iter().flat_map(|(_, rs)| rs).collect();
    debug_assert_eq!(results.len(), n, "every item evaluated exactly once");
    (results, steals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Axis;

    fn demo_space(n: u64) -> Space<(u64, u64)> {
        Space::grid2(
            "exec_demo",
            Axis::new("a", (0..n).collect()),
            Axis::new("b", vec![1u64, 2, 3]),
        )
    }

    #[test]
    fn parallel_matches_sequential_for_any_thread_count() {
        let space = demo_space(40);
        let eval = |&(a, b): &(u64, u64)| a * 1000 + b;
        let seq = sweep(&space, &ExecOptions::sequential(), eval);
        for threads in [2, 3, 8, 16] {
            let par = sweep(&space, &ExecOptions::threads(threads), eval);
            assert_eq!(par.results, seq.results, "threads={threads}");
            assert_eq!(par.stats.evaluated, space.len());
        }
    }

    #[test]
    fn empty_space_sweeps_cleanly() {
        let space = demo_space(2).filter(|_| false);
        let out = sweep(&space, &ExecOptions::threads(4), |_| 0u64);
        assert!(out.results.is_empty());
        assert_eq!(out.stats.evaluated, 0);
    }

    #[test]
    fn thread_count_is_clamped_to_points() {
        let space = demo_space(1); // 3 points
        let out = sweep(&space, &ExecOptions::threads(64), |&(a, b)| a + b);
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn cached_sweep_hits_on_second_run() {
        let space = demo_space(10);
        let mut cache = Cache::in_memory("v1");
        let eval = |&(a, b): &(u64, u64)| a * 7 + b;
        let cold = sweep_cached(&space, &ExecOptions::threads(4), &mut cache, eval);
        assert_eq!(cold.stats.evaluated, space.len());
        assert_eq!(cold.stats.cache_hits, 0);

        let warm = sweep_cached(&space, &ExecOptions::threads(4), &mut cache, |_| -> u64 {
            panic!("warm run must not evaluate")
        });
        assert_eq!(warm.stats.evaluated, 0);
        assert_eq!(warm.stats.cache_hits, space.len());
        assert_eq!(warm.results, cold.results);
    }

    #[test]
    fn partial_cache_evaluates_only_misses() {
        let space = demo_space(10);
        let half = space.clone().filter(|&(a, _)| a < 5);
        let mut cache = Cache::in_memory("v1");
        let eval = |&(a, b): &(u64, u64)| a * 7 + b;
        sweep_cached(&half, &ExecOptions::sequential(), &mut cache, eval);
        let full = sweep_cached(&space, &ExecOptions::threads(2), &mut cache, eval);
        assert_eq!(full.stats.cache_hits, half.len());
        assert_eq!(full.stats.evaluated, space.len() - half.len());
        let direct = sweep(&space, &ExecOptions::sequential(), eval);
        assert_eq!(full.results, direct.results);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One point is 1000× the others: 60 points on 4 threads make
        // chunks of 1, so the threads stuck behind it lose their share
        // to the fast ones.
        let space = demo_space(20);
        let opts = ExecOptions::threads(4);
        let out = sweep(&space, &opts, |&(a, _)| {
            let spins = if a == 0 { 200_000u64 } else { 200 };
            // A live loop the optimiser cannot elide entirely.
            (0..spins).fold(0u64, |acc, v| acc ^ v.wrapping_mul(0x9e37))
        });
        assert_eq!(out.results.len(), space.len());
        assert!(
            out.stats.steals > 0,
            "expected dynamic rebalancing, stats: {:?}",
            out.stats
        );
    }

    #[test]
    fn map_keeps_item_order_at_any_thread_count() {
        // Chunks of 1 (50 items on 8 threads) up to 41 with a short
        // tail chunk (1,000 items on 3 threads).
        for len in [50u64, 200, 1000] {
            let items: Vec<u64> = (0..len).collect();
            let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    map(&items, &ExecOptions::threads(threads), |&x| x * x + 1),
                    want,
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn map_of_nothing_is_empty() {
        let none: [u64; 0] = [];
        assert!(map(&none, &ExecOptions::threads(4), |&x| x).is_empty());
    }

    #[test]
    fn map_runs_a_single_item_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = map(&[1u8], &ExecOptions::threads(8), |_| {
            std::thread::current().id()
        });
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn map_counts_the_caller_among_its_threads() {
        // Both items must be in flight at once to pass the barrier, so
        // with two threads each runs one: one of them is the caller.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ran_on = map(&[0u8, 1], &ExecOptions::threads(2), |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert!(ran_on.contains(&caller), "{ran_on:?} vs caller {caller:?}");
        assert_ne!(ran_on[0], ran_on[1]);
    }

    #[test]
    fn map_reraises_a_workers_own_panic_payload() {
        use std::sync::atomic::AtomicBool;
        #[derive(Debug, PartialEq)]
        struct Boom(u32);
        // The caller holds its item until the spawned worker has taken
        // the other one, so the panic is the worker's.
        let caller = std::thread::current().id();
        let worker_started = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map(&[0u8, 1], &ExecOptions::threads(2), |_| {
                if std::thread::current().id() == caller {
                    while !worker_started.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                } else {
                    worker_started.store(true, Ordering::SeqCst);
                    std::panic::panic_any(Boom(7));
                }
            })
        }));
        let payload = caught.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(7)));
    }

    #[test]
    fn points_per_sec_is_positive_for_nonempty() {
        let out = sweep(&demo_space(8), &ExecOptions::sequential(), |&(a, b)| a + b);
        assert!(out.stats.points_per_sec() > 0.0);
    }
}
