//! Integration tests for the persistent work-sharing pool runtime:
//! warm solves spawn no OS threads, concurrent engines on separate OS
//! threads coexist on the shared pool, and solve output is identical
//! across worker budgets.

use fast_bcc::baselines::hopcroft_tarjan;
use fast_bcc::prelude::*;
use fastbcc_primitives::worker_local::WorkerLocal;
use fastbcc_primitives::{max_workers, pool_spawns, worker_index};
use std::sync::Mutex;

/// Serializes the pool-sensitive tests: the spawn counter is global to
/// the test process, so tests that assert on it must not interleave with
/// other tests entering fresh worker budgets.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Acceptance: after a warm-up solve, a full `BccEngine::solve` spawns
/// **zero** new OS threads — the pool's workers persist and park.
#[test]
#[cfg_attr(miri, ignore = "OS threads, spin loops, and wall-clock timing")]
fn warm_solve_spawns_zero_threads() {
    let _guard = lock();
    let g = generators::grid2d(120, 120, false);
    let mut engine = BccEngine::new(BccOpts::default());
    engine.solve(&g); // warm-up: may lazily spawn pool workers
    let spawned = pool_spawns();
    for _ in 0..3 {
        engine.solve(&g);
    }
    assert_eq!(
        pool_spawns(),
        spawned,
        "a warm BccEngine::solve spawned new OS threads"
    );
}

/// Two engines solving different graphs from two OS threads share the
/// pool: both produce correct BCCs (vs. Hopcroft–Tarjan) and these two
/// engines never grow the pool past the default budget (no
/// oversubscription, no panics).
#[test]
#[cfg_attr(miri, ignore = "OS threads, spin loops, and wall-clock timing")]
fn concurrent_engines_share_the_pool() {
    let _guard = lock();
    let ga = generators::grid2d(90, 90, false);
    let gb = generators::web_like(12, 30_000, 0xFA57_BCC);
    let expect_a = hopcroft_tarjan(&ga, false).num_bcc;
    let expect_b = hopcroft_tarjan(&gb, false).num_bcc;

    // `pool_spawns()` is a process-lifetime total: sibling tests in this
    // binary may already have grown the pool (up to `max_workers()`)
    // under wider budgets, so the engines are judged against the count
    // just before they start, not against zero.
    let spawned_before = pool_spawns();

    std::thread::scope(|s| {
        let ta = s.spawn(|| {
            let mut engine = BccEngine::new(BccOpts::default());
            (0..3)
                .map(|_| engine.solve(&ga).num_bcc)
                .collect::<Vec<_>>()
        });
        let tb = s.spawn(|| {
            let mut engine = BccEngine::new(BccOpts::default());
            (0..3)
                .map(|_| engine.solve(&gb).num_bcc)
                .collect::<Vec<_>>()
        });
        let counts_a = ta.join().expect("engine A panicked");
        let counts_b = tb.join().expect("engine B panicked");
        assert!(counts_a.iter().all(|&c| c == expect_a));
        assert!(counts_b.iter().all(|&c| c == expect_b));
    });

    // Budget check: both engines submit under the default budget, whose
    // region admits the submitter plus `budget - 1` helpers, so they may
    // grow the pool to at most `budget - 1` workers — and not at all when
    // it already holds that many. The pool never exceeds its hard
    // ceiling either way.
    let budget = fastbcc_primitives::num_threads().max(1);
    let spawned = pool_spawns();
    assert!(
        spawned <= spawned_before.max(budget - 1),
        "two engines grew the pool from {spawned_before} to {spawned} workers \
         with a default budget of {budget}"
    );
    assert!(
        spawned <= max_workers(),
        "pool spawned {spawned} workers past its ceiling of {}",
        max_workers()
    );
}

/// Nested parallel operations never observe a worker identity outside
/// the `max_workers()` ceiling, so `WorkerLocal` indexing stays in bounds
/// even under a worker budget far beyond the hardware — the invariant the
/// per-worker frontier arenas rely on. Every leaf writes through its
/// slot and the total must balance (no slot lost, none double-counted).
#[test]
#[cfg_attr(miri, ignore = "OS threads, spin loops, and wall-clock timing")]
fn nested_ops_never_index_worker_local_out_of_bounds() {
    let _guard = lock();
    let arenas = WorkerLocal::<Vec<u32>>::default();
    let outer = 8usize;
    let inner = 512usize;
    // A budget well past the ceiling: the pool must clamp identities, not
    // mint new ones.
    with_threads(4 * max_workers().max(2), || {
        fastbcc_primitives::par::par_for_grain(outer, 1, |o| {
            fastbcc_primitives::par::par_for_grain(inner, 16, |i| {
                if let Some(w) = worker_index() {
                    assert!(w < max_workers(), "worker index {w} escaped the ceiling");
                }
                arenas.with(|buf| buf.push((o * inner + i) as u32));
            });
        });
    });
    let mut arenas = arenas;
    let mut all = Vec::new();
    arenas.append_to(&mut all);
    assert_eq!(all.len(), outer * inner);
    all.sort_unstable();
    assert!(all.iter().enumerate().all(|(i, &x)| x == i as u32));
}

/// Solve output is identical across worker budgets of 1, 2, and the
/// hardware default. Parallel-iterator `collect`s have deterministic
/// piece boundaries (input length and budget only, never timing), so the
/// BCC *partition* must not depend on the schedule; raw label values may
/// pick different representatives under racy Last-CC, so the partition is
/// compared in first-occurrence normal form.
#[test]
#[cfg_attr(miri, ignore = "OS threads, spin loops, and wall-clock timing")]
fn solve_output_is_identical_across_thread_counts() {
    let _guard = lock();
    let g = generators::grid2d_sampled(70, 70, 0.93, 0x5EED_1DD);
    let expect = hopcroft_tarjan(&g, false).num_bcc;

    fn normalize(labels: &[u32]) -> Vec<u32> {
        let mut rename = std::collections::HashMap::new();
        labels
            .iter()
            .map(|&l| {
                let next = rename.len() as u32;
                *rename.entry(l).or_insert(next)
            })
            .collect()
    }

    let hw = fastbcc_primitives::num_threads().max(1);
    let solve_at = |k: usize| {
        with_threads(k, || {
            let r = fast_bcc(&g, BccOpts::default());
            assert_eq!(r.num_bcc, expect, "wrong BCC count at {k} threads");
            (normalize(&r.labels), r.num_bcc, r.num_cc)
        })
    };
    let base = solve_at(1);
    for k in [2, hw] {
        assert_eq!(solve_at(k), base, "solve diverged at {k} threads");
    }
}

/// Same determinism, but with the submitting lane of a `join` pinned busy
/// so the whole solve is serviced through the work-stealing deques: the
/// BCC partition must not depend on *which* worker ran which range. The
/// spinner releases as soon as the solve completes (200 ms failsafe when
/// no worker attaches, e.g. every budget running inline on one core).
#[test]
#[cfg_attr(miri, ignore = "OS threads, spin loops, and wall-clock timing")]
fn solve_partition_stable_under_forced_steals() {
    let _guard = lock();
    let g = generators::grid2d_sampled(60, 60, 0.93, 0xFA57_BCC);
    let expect = hopcroft_tarjan(&g, false).num_bcc;

    fn normalize(labels: &[u32]) -> Vec<u32> {
        let mut rename = std::collections::HashMap::new();
        labels
            .iter()
            .map(|&l| {
                let next = rename.len() as u32;
                *rename.entry(l).or_insert(next)
            })
            .collect()
    }

    let base = with_threads(1, || {
        let r = fast_bcc(&g, BccOpts::default());
        (normalize(&r.labels), r.num_bcc, r.num_cc)
    });
    for k in [2usize, 8] {
        let run = with_threads(k, || {
            use std::sync::atomic::{AtomicBool, Ordering};
            let stop = AtomicBool::new(false);
            let (_, r) = rayon::join(
                || {
                    let t0 = std::time::Instant::now();
                    while !stop.load(Ordering::Acquire)
                        && t0.elapsed() < std::time::Duration::from_millis(200)
                    {
                        std::hint::spin_loop();
                    }
                },
                || {
                    let r = fast_bcc(&g, BccOpts::default());
                    stop.store(true, Ordering::Release);
                    (normalize(&r.labels), r.num_bcc, r.num_cc)
                },
            );
            r
        });
        assert_eq!(run.1, expect, "wrong BCC count under steals at {k} threads");
        assert_eq!(run, base, "solve diverged under steals at {k} threads");
    }
}

/// The pool's steal telemetry is observable through the facade and never
/// runs backwards: process-lifetime counters, so benchmarks can subtract
/// adjacent readings to attribute steals to a run.
#[test]
#[cfg_attr(miri, ignore = "OS threads, spin loops, and wall-clock timing")]
fn steal_counters_observable_through_facade() {
    let _guard = lock();
    let before_steals = fastbcc_primitives::steal_count();
    let before_depth = fastbcc_primitives::deque_max_depth();
    let g = generators::grid2d(80, 80, false);
    let r = with_threads(fastbcc_primitives::num_threads().max(2), || {
        fast_bcc(&g, BccOpts::default())
    });
    assert!(r.num_bcc > 0);
    assert!(fastbcc_primitives::steal_count() >= before_steals);
    assert!(fastbcc_primitives::deque_max_depth() >= before_depth);
}
