//! Integration tests for the explore engine driving the paper's model
//! sweeps: thread-count determinism, warm-cache re-runs, and Pareto
//! extraction against a brute-force dominance check.

use explore::{pareto_indices, Cache, Constraint, Direction, ExecOptions, Objective};
use sudc::bottleneck::{fig11_row, fig11_space, Fig11Row};
use sudc::codesign::{fig13_point, fig13_space};
use sudc::sizing::PAPER_CONSTELLATION;

#[test]
fn thread_count_never_changes_the_results() {
    // Paper Fig. 13 grid and the Fig. 11 bottleneck space, swept at
    // 1, 2, and 8 threads: ordered results must be identical.
    let codesign = fig13_space(&[2, 4, 8, 16], &[1, 2, 4, 8]);
    let seq = explore::sweep(&codesign, &ExecOptions::sequential(), |&(k, s)| {
        fig13_point(k, s)
    });
    for threads in [2, 8] {
        let par = explore::sweep(&codesign, &ExecOptions::threads(threads), |&(k, s)| {
            fig13_point(k, s)
        });
        assert_eq!(par.results, seq.results, "codesign @ {threads} threads");
        assert_eq!(par.stats.threads, threads);
    }

    let bottleneck = fig11_space(&[4.0, 256.0]);
    let seq = explore::sweep(&bottleneck, &ExecOptions::sequential(), |p| {
        fig11_row(PAPER_CONSTELLATION, p)
    });
    for threads in [2, 8] {
        let par = explore::sweep(&bottleneck, &ExecOptions::threads(threads), |p| {
            fig11_row(PAPER_CONSTELLATION, p)
        });
        assert_eq!(par.results, seq.results, "bottleneck @ {threads} threads");
    }
}

#[test]
fn warm_cache_rerun_evaluates_nothing_and_matches() {
    let dir = std::env::temp_dir().join(format!("explore_engine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let space = fig11_space(&[4.0, 256.0]);
    let eval = |p: &(
        f64,
        workloads::Application,
        units::Length,
        f64,
        comms::IslClass,
    )| { fig11_row(PAPER_CONSTELLATION, p) };

    let mut cache = Cache::open(&dir, "fig11", "test-v1");
    let cold = explore::sweep_cached(&space, &ExecOptions::threads(4), &mut cache, eval);
    assert_eq!(cold.stats.evaluated, space.len());
    assert_eq!(cold.stats.cache_hits, 0);
    assert!(
        cache.save().expect("cache saves").is_some(),
        "cold run must write a snapshot"
    );

    // Re-open from disk: everything must come from the snapshot, and a
    // clean save must not rewrite it.
    let mut cache = Cache::open(&dir, "fig11", "test-v1");
    let warm = explore::sweep_cached(
        &space,
        &ExecOptions::threads(4),
        &mut cache,
        |_| -> Fig11Row { panic!("warm run must not evaluate") },
    );
    assert_eq!(warm.stats.evaluated, 0);
    assert_eq!(warm.stats.cache_hits, space.len());
    assert_eq!(warm.results, cold.results);
    assert_eq!(cache.save().expect("clean save"), None);

    // A different version tag invalidates every entry.
    let mut stale = Cache::open(&dir, "fig11", "test-v2");
    let cold2 = explore::sweep_cached(&space, &ExecOptions::sequential(), &mut stale, eval);
    assert_eq!(cold2.stats.cache_hits, 0, "version bump must miss");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Brute-force dominance: `i` is on the frontier iff no feasible point
/// is at least as good everywhere and strictly better somewhere.
fn brute_force_front<R>(
    results: &[R],
    objectives: &[Objective<R>],
    constraints: &[Constraint<R>],
) -> Vec<usize> {
    let lower_is_better: Vec<Option<Vec<f64>>> = results
        .iter()
        .map(|r| {
            if !constraints.iter().all(|c| (c.ok)(r)) {
                return None;
            }
            let scores: Vec<f64> = objectives
                .iter()
                .map(|o| {
                    let s = (o.score)(r);
                    match o.direction {
                        Direction::Minimize => s,
                        Direction::Maximize => -s,
                    }
                })
                .collect();
            scores.iter().all(|s| !s.is_nan()).then_some(scores)
        })
        .collect();
    (0..results.len())
        .filter(|&i| {
            let Some(a) = &lower_is_better[i] else {
                return false;
            };
            !lower_is_better.iter().flatten().any(|b| {
                a.iter().zip(b).all(|(x, y)| y <= x) && a.iter().zip(b).any(|(x, y)| y < x)
            })
        })
        .collect()
}

#[test]
fn pareto_matches_brute_force_dominance() {
    // Hand-built 2-objective sets: duplicates, NaNs, a dominated
    // cluster, and an infeasible best point.
    let sets: Vec<Vec<(f64, f64)>> = vec![
        vec![(1.0, 4.0), (2.0, 2.0), (4.0, 1.0), (3.0, 3.0), (2.0, 2.0)],
        vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        vec![(1.0, f64::NAN), (2.0, 3.0), (3.0, 2.0)],
        vec![(5.0, 5.0)],
        vec![
            (-1.0, 10.0),
            (0.5, 0.5),
            (0.5, 0.5),
            (10.0, -1.0),
            (0.0, 0.0),
        ],
    ];
    let objectives = [
        Objective::<(f64, f64)>::minimize("x", |p| p.0),
        Objective::<(f64, f64)>::minimize("y", |p| p.1),
    ];
    let feasible = [Constraint::<(f64, f64)>::new("x >= 0", |p| p.0 >= 0.0)];
    for (n, set) in sets.iter().enumerate() {
        let fast = pareto_indices(set, &objectives, &feasible);
        let slow = brute_force_front(set, &objectives, &feasible);
        assert_eq!(fast, slow, "set {n}");
    }

    // Mixed directions on a model sweep: the Fig. 13 frontier under
    // (max capacity, min power) must agree with brute force too.
    let grid = sudc::codesign::fig13_sweep(&[2, 4, 8, 16], &[1, 2, 4, 8]);
    let objectives = [
        Objective::maximize("capacity", |p: &sudc::codesign::CodesignPoint| {
            p.capacity_norm
        }),
        Objective::minimize("power", |p: &sudc::codesign::CodesignPoint| p.power_norm),
    ];
    let fast = pareto_indices(&grid, &objectives, &[]);
    let slow = brute_force_front(&grid, &objectives, &[]);
    assert_eq!(fast, slow);
    assert_eq!(fast.len(), 7, "Fig. 13 frontier: k=2 line + max-split tips");
}
