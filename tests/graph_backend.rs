//! Cross-backend equivalence (PR 10 acceptance): every
//! [`fast_bcc::graph::GraphView`] backend — flat CSR, compressed blocks,
//! and the zero-copy mmap-loaded snapshot of each — must produce the same
//! solve result and the same answer to every query kind (`SameBcc`,
//! `IsArticulation`, `IsBridge`, `CutVerticesOnPath`), at every thread
//! budget, on both solve paths: [`BccEngine::solve_view`] (the DFS up to
//! `DFS_MAX_BUDGET`, the pipeline above it) and
//! [`BccEngine::solve_fast_bcc`].
//! The Hopcroft–Tarjan oracle on the flat graph supplies the BCC sets,
//! articulation points and bridges; the one-shot `fast_bcc` supplies the
//! component count and the reference query answers.

use fast_bcc::baselines::hopcroft_tarjan;
use fast_bcc::graph::{
    load_snapshot, save_snapshot, save_snapshot_compressed, CompressedGraph, GraphView,
};
use fast_bcc::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique scratch directory per check (tests run in parallel threads).
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "fastbcc-backend-eq-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

/// Reference answers computed once from the flat graph.
struct Reference {
    num_bcc: usize,
    num_cc: usize,
    sets: Vec<Vec<V>>,
    cuts: Vec<V>,
    bridges: Vec<(V, V)>,
    queries: Vec<Query>,
    answers: Vec<QueryAnswer>,
}

fn reference(g: &Graph, tag: &str) -> Reference {
    let ht = hopcroft_tarjan(g, true);
    let r = fast_bcc(g, BccOpts::default());
    let ix = BccIndex::new(&r);
    let queries = if g.n() > 0 {
        random_mixed_batch(g.n(), 96, 0xB1C0 ^ g.n() as u64)
    } else {
        Vec::new()
    };
    let answers = queries.iter().map(|&q| ix.answer(q)).collect();
    assert!(!tag.is_empty());
    Reference {
        num_bcc: ht.num_bcc,
        num_cc: r.num_cc,
        sets: ht.bccs.unwrap(),
        cuts: ht.articulation_points,
        bridges: ht.bridges,
        queries,
        answers,
    }
}

/// Solve `g` on both engine paths and compare everything against the
/// flat reference.
fn check_one<G: GraphView>(g: &G, want: &Reference, tag: &str, threads: usize) {
    let mut engine = BccEngine::new(BccOpts::default());
    for path in ["solve_view", "solve_fast_bcc"] {
        let ctx = format!("{tag}/{}/p{threads}/{path}", g.backend_name());
        let r = if path == "solve_view" {
            engine.solve_view(g)
        } else {
            engine.solve_fast_bcc(g)
        };
        assert_eq!(r.num_bcc, want.num_bcc, "{ctx}: num_bcc");
        assert_eq!(r.num_cc, want.num_cc, "{ctx}: num_cc");
        assert_eq!(canonical_bccs(r), want.sets, "{ctx}: BCC vertex sets");
        assert_eq!(articulation_points(r), want.cuts, "{ctx}: cuts");
        let mut b: Vec<(V, V)> = bridges(r)
            .iter()
            .map(|&(x, y)| (x.min(y), x.max(y)))
            .collect();
        b.sort_unstable();
        assert_eq!(b, want.bridges, "{ctx}: bridges");
        let ix = BccIndex::new(r);
        for (q, a) in want.queries.iter().zip(&want.answers) {
            assert_eq!(ix.answer(*q), *a, "{ctx}: {q:?}");
        }
    }
}

/// The whole acceptance matrix for one input graph: four backends × the
/// given thread budgets, each compared against the flat one-shot solve.
fn check_backends(g: &Graph, tag: &str, budgets: &[usize]) {
    let want = reference(g, tag);

    let cg = CompressedGraph::from_graph(g);
    let dir = scratch_dir();
    let flat_path = dir.join("g.flat.fbcc");
    let comp_path = dir.join("g.comp.fbcc");
    save_snapshot(g, &flat_path).expect("save flat snapshot");
    save_snapshot_compressed(&cg, &comp_path).expect("save compressed snapshot");
    let mflat = load_snapshot(&flat_path).expect("load flat snapshot");
    let mcomp = load_snapshot(&comp_path).expect("load compressed snapshot");

    for &p in budgets {
        with_threads(p, || {
            check_one(g, &want, tag, p);
            check_one(&cg, &want, tag, p);
            check_one(&mflat, &want, tag, p);
            check_one(&mcomp, &want, tag, p);
        });
    }
    // Snapshots are memory-mapped; drop the maps before unlinking so the
    // cleanup order is explicit (harmless on unix either way).
    drop((mflat, mcomp));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zoo_backends_agree_at_every_thread_budget() {
    use fast_bcc::graph::generators::classic::*;
    use fast_bcc::graph::generators::{grid2d, rmat};
    for (g, tag) in [
        (path(9), "path"),
        (cycle(8), "cycle"),
        (star(7), "star"),
        (complete(6), "complete"),
        (windmill(4), "windmill"),
        (barbell(4, 2), "barbell"),
        (clique_chain(4, 3), "clique-chain"),
        (binary_tree(15), "binary-tree"),
        (theta(2, 3, 4), "theta"),
        (petersen(), "petersen"),
        (ladder(5), "ladder"),
        (wheel(7), "wheel"),
        (grid2d(4, 5, false), "grid"),
        (rmat(6, 200, 42), "rmat6"),
        (
            disjoint_union(&[&windmill(3), &path(4), &cycle(5), &Graph::empty(3)]),
            "mixture",
        ),
        (Graph::empty(4), "empty-4"),
        (path(2), "single-edge"),
    ] {
        check_backends(&g, tag, &[1, 2, 8]);
    }
}

#[test]
fn larger_rmat_backends_agree() {
    // Big enough to force multi-block adjacency lists (BLOCK = 64) and a
    // dense edgeMap phase, so the per-block decode inside the hot loops is
    // exercised rather than just the one-block fast path.
    let g = fast_bcc::graph::generators::rmat(11, 40_000, 7);
    check_backends(&g, "rmat11", &[1, 8]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Arbitrary graphs (dupes and self-loops exercised deliberately):
    /// all four backends must agree with the flat reference at serial and
    /// parallel budgets.
    #[test]
    fn backends_agree_on_random_graphs(g in arb_graph(40, 100)) {
        check_backends(&g, "proptest", &[1, 8]);
    }
}

/// Arbitrary graph: up to `nmax` vertices, arbitrary edge pairs.
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (2..nmax).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as V, 0..n as V), 0..mmax)
            .prop_map(move |edges| builder::from_edges(n, &edges))
    })
}
