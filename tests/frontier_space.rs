//! Acceptance tests for the pre-counted edgeMap frontier layer: the
//! engine's reserved scratch no longer scales with the worker ceiling
//! (the old per-worker arenas reserved `O(n)` per possible worker — an
//! `O(n · P)` envelope), warm solves stay allocation-free at multi-worker
//! budgets, and the total pooled workspace fits a linear `c · (n + m)`
//! budget — the same gate the `bench-smoke` CI job enforces over the
//! Tab. 2 suite.

use fast_bcc::prelude::*;

/// The linear-space budget of the pooled workspace — the shared
/// definition the `bench-smoke` gate also enforces.
use fast_bcc::core::space::workspace_budget_bytes as scratch_budget;

/// Reserved workspace bytes after two FAST-BCC pipeline solves of `g`
/// under a worker budget of `k`, asserting the second solve allocated
/// nothing. The pipeline runs through `solve_fast_bcc`, because
/// `solve` takes the DFS up to `DFS_MAX_BUDGET`.
fn warm_workspace_bytes(g: &Graph, k: usize) -> usize {
    with_threads(k, || {
        let opts = BccOpts {
            // Local search off: the hash bag is the one pooled buffer
            // whose capacity legitimately varies with the worker count
            // (it is a granularity control); everything else must be a
            // function of (n, m) alone.
            local_search: false,
            ..Default::default()
        };
        let mut engine = BccEngine::new(opts);
        engine.solve_fast_bcc(g);
        let r = engine.solve_fast_bcc(g);
        assert_eq!(r.fresh_alloc_bytes, 0, "warm solve allocated at budget {k}");
        engine.workspace().heap_bytes()
    })
}

/// The headline acceptance criterion: reserved scratch bytes are
/// identical under worker budgets 1 and 8 — nothing in the frontier
/// layer reserves per-worker `O(n)` arenas anymore.
#[test]
fn workspace_bytes_identical_across_worker_budgets() {
    for g in [
        generators::rmat(11, 8_000, 3),
        generators::grid2d(60, 60, false),
        generators::classic::star(4_000),
    ] {
        let b1 = warm_workspace_bytes(&g, 1);
        let b8 = warm_workspace_bytes(&g, 8);
        assert_eq!(
            b1,
            b8,
            "reserved workspace depends on the worker budget (n={})",
            g.n()
        );
    }
}

/// The workspace fits the linear envelope on shapes that stress both
/// modes: a dense-frontier star, a high-diameter grid, and a power-law
/// rmat graph.
#[test]
fn workspace_fits_linear_space_budget() {
    for g in [
        generators::rmat(12, 30_000, 7),
        generators::grid2d(100, 100, true),
        generators::classic::star(20_000),
        generators::classic::path(50_000),
    ] {
        let bytes = warm_workspace_bytes(&g, 4);
        let budget = scratch_budget(g.n(), g.m_undirected());
        assert!(
            bytes <= budget,
            "workspace {} bytes exceeds the {} budget (n={}, m={})",
            bytes,
            budget,
            g.n(),
            g.m_undirected()
        );
    }
}

/// Warm re-solves report zero fresh bytes at several explicit budgets —
/// including ones past the hardware parallelism — with the default
/// options (local search enabled), matching the CI matrix's
/// `FASTBCC_THREADS` sweep. `solve` takes the DFS at budgets 1 and 2 and
/// the pipeline at 4 and 8.
#[test]
fn warm_solves_allocation_free_at_every_budget() {
    let g = generators::grid2d_sampled(80, 80, 0.95, 0xED6E);
    for k in [1usize, 2, 4, 8] {
        with_threads(k, || {
            let mut engine = BccEngine::new(BccOpts::default());
            engine.solve(&g);
            for round in 0..2 {
                let r = engine.solve(&g);
                assert_eq!(
                    r.fresh_alloc_bytes, 0,
                    "budget {k}, round {round} allocated"
                );
            }
        });
    }
}

/// On the bench suite's high-diameter grid rows, the LDD's early rounds
/// (the big center-injection waves) legitimately cross the `m/20`
/// density threshold — the regime the `BENCH_edgemap_frontier.json`
/// artifact records dense-mode engagement for.
#[test]
fn dense_mode_engages_on_high_diameter_grid() {
    use fast_bcc::connectivity::ldd::{ldd_filtered_in, LddOpts, LddScratch};
    let g = generators::grid2d(100, 100, false);
    let mut scratch = LddScratch::new();
    ldd_filtered_in(&g, LddOpts::default(), &|_, _| true, &mut scratch, true);
    assert!(scratch.dense_rounds() > 0, "grid LDD never went bottom-up");
}
