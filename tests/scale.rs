//! Medium-scale integration tests: the suite's generator families at
//! 10⁴–10⁶ edges, checking cross-algorithm agreement on counts (full set
//! comparison is covered at smaller scale in `cross_algorithm.rs`) and
//! the structural invariants the paper's Tab. 2 reports.

use fast_bcc::baselines::{bfs_bcc, hopcroft_tarjan, tarjan_vishkin};
use fast_bcc::graph::generators::classic::path;
use fast_bcc::graph::generators::{grid2d, grid2d_sampled, knn, random_geometric, rmat};
use fast_bcc::prelude::*;

fn check_counts(g: &Graph, tag: &str) {
    let want = hopcroft_tarjan(g, false);
    let r = fast_bcc(g, BccOpts::default());
    assert_eq!(r.num_bcc, want.num_bcc, "{tag}: fast");
    assert_eq!(
        articulation_points(&r).len(),
        want.articulation_points.len(),
        "{tag}: #APs"
    );
    let b = bfs_bcc(g, 5);
    assert_eq!(b.num_bcc, want.num_bcc, "{tag}: bfs");
    let tv = tarjan_vishkin(g, 5);
    assert_eq!(tv.num_bcc, want.num_bcc, "{tag}: tv");
}

#[test]
fn grid_100k() {
    let g = grid2d(300, 340, true);
    // A torus is 2-connected: exactly one BCC.
    let r = fast_bcc(&g, BccOpts::default());
    assert_eq!(r.num_bcc, 1);
    assert_eq!(largest_bcc_size(&r), g.n());
    check_counts(&g, "torus-100k");
}

#[test]
fn sampled_grid_200k() {
    let g = grid2d_sampled(350, 350, 0.6, 9);
    check_counts(&g, "sampled-grid");
}

#[test]
fn chain_1m() {
    // The paper's Chn input: every vertex an articulation point, every
    // edge a bridge.
    let n = 1_000_000;
    let g = path(n);
    let r = fast_bcc(&g, BccOpts::default());
    assert_eq!(r.num_bcc, n - 1);
    assert_eq!(articulation_points(&r).len(), n - 2);
    assert_eq!(bridges(&r).len(), n - 1);
}

#[test]
fn deep_chains_solve_at_budget_1() {
    // The DFS solve keeps its stack on the heap: a million-deep DFS tree
    // runs on the default test-thread stack. A path (Chn: every edge a
    // bridge), a cycle (one block) and a ladder (one block under a
    // vertex-deep tree with a back edge per rung) all go a million deep.
    use fast_bcc::graph::generators::classic::{cycle, ladder};
    with_threads(1, || {
        let n = 1_000_000;
        let mut engine = BccEngine::new(BccOpts::default());
        let r = engine.solve(&path(n));
        assert_eq!((r.num_bcc, r.num_cc), (n - 1, 1));
        assert_eq!(articulation_points(r).len(), n - 2);
        assert_eq!(bridges(r).len(), n - 1);
        assert_eq!(engine.solve(&cycle(n)).num_bcc, 1);
        assert_eq!(engine.solve(&ladder(n / 2)).num_bcc, 1);
    });
}

#[test]
fn rmat_power_law() {
    let g = rmat(14, 120_000, 11);
    check_counts(&g, "rmat14");
    // Social-graph shape: one giant BCC holding most non-isolated vertices.
    let r = fast_bcc(&g, BccOpts::default());
    let giant = largest_bcc_size(&r);
    assert!(
        giant * 3 > g.n(),
        "expected giant BCC, got {} of {}",
        giant,
        g.n()
    );
}

#[test]
fn knn_medium() {
    let g = knn(40_000, 5, 13);
    check_counts(&g, "knn5");
}

#[test]
fn road_like_medium() {
    let g = random_geometric(
        40_000,
        fast_bcc::graph::generators::geometric::road_like_radius(40_000),
        15,
    );
    check_counts(&g, "road");
}

#[test]
fn span_shape_on_large_diameter() {
    // The paper's core claim is about *span*: BFS-based rooting needs
    // Θ(diam) synchronous rounds while FAST-BCC's phases are polylog. On a
    // 2-core machine wall-clock barely shows this (each near-empty BFS
    // round costs ~100ns), so we assert the structural quantity directly:
    // round counts, which are what multiply with per-round scheduling cost
    // on real multicores (Fig. 4/5).
    let n = 400_000;
    let g = path(n);

    let bfs = fast_bcc::connectivity::bfs::bfs_forest(&g);
    assert!(
        bfs.rounds >= n - 2,
        "BFS rounds {} must be Θ(diam) on a chain",
        bfs.rounds
    );

    let ldd = fast_bcc::connectivity::ldd::ldd(&g, fast_bcc::connectivity::ldd::LddOpts::default());
    // polylog regime: generous bound log²(n) ≈ 350 for n = 4·10⁵.
    let bound = {
        let l = (n as f64).log2();
        (l * l) as usize
    };
    assert!(
        ldd.rounds <= bound,
        "LDD rounds {} should be polylog (≤ {bound})",
        ldd.rounds
    );

    // And end-to-end outputs still agree.
    let fast = fast_bcc(&g, BccOpts::default());
    let b = bfs_bcc(&g, 3);
    assert_eq!(fast.num_bcc, b.num_bcc);
}
