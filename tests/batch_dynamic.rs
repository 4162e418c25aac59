//! Batch-dynamic equivalence: after every `BccEngine::apply_batch`, the
//! engine's result must keep the representation's invariants
//! (`BccResult::verify_representation`) and be indistinguishable from a
//! fresh solve of the evolved graph — same component and block counts,
//! same canonical BCCs, same articulation vertices and bridges, same
//! query-index answers — no
//! matter which internal path (bridge fast paths, certificates, region
//! re-solves, region re-roots, or the full-solve fallback) the batch took.
//! Deletions are drawn from the live edge set, so scripts routinely cut
//! bridges and tree edges, disconnect components, and reconnect them
//! batches later. Every script runs at budget 1 and at `DFS_MAX_BUDGET`,
//! where the attached result and every fallback are DFS solves, and at
//! one worker past it, where they run the pipeline; region repairs run
//! the engine's in-place region DFS at every budget. The fresh reference
//! is always the FAST-BCC pipeline.

use fast_bcc::core::engine::DFS_MAX_BUDGET;
use fast_bcc::core::postprocess::{articulation_points, bridges};
use fast_bcc::core::query::random_mixed_batch;
use fast_bcc::core::{canonical_bccs as canon, BccEngine, Query, QueryScratch};
use fast_bcc::graph::{apply_delta, builder, DeltaScratch, Graph, V};
use fast_bcc::primitives::with_threads;
use fast_bcc::BccOpts;
use proptest::prelude::*;

/// The engine's current result vs a from-scratch solve of the same graph,
/// after checking the maintained representation's own invariants.
fn assert_matches_fresh(engine: &BccEngine, ctx: &str) {
    let g = engine.graph().expect("engine is attached");
    if let Err(e) = engine.result().verify_representation(g) {
        panic!("representation: {e} {ctx}");
    }
    let mut fresh = BccEngine::new(BccOpts::default());
    fresh.solve_fast_bcc(g);
    assert_eq!(
        engine.result().num_cc,
        fresh.result().num_cc,
        "num_cc {ctx}"
    );
    assert_eq!(
        engine.result().num_bcc,
        fresh.result().num_bcc,
        "num_bcc {ctx}"
    );
    assert_eq!(
        canon(engine.result()),
        canon(fresh.result()),
        "canonical BCCs {ctx}"
    );
    let norm = |mut v: Vec<(V, V)>| {
        for e in v.iter_mut() {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        v.sort_unstable();
        v
    };
    assert_eq!(
        articulation_points(engine.result()),
        articulation_points(fresh.result()),
        "articulation points {ctx}"
    );
    assert_eq!(
        norm(bridges(engine.result())),
        norm(bridges(fresh.result())),
        "bridges {ctx}"
    );

    // The index over the maintained result must answer the serving
    // rebuilder's traffic exactly as a fresh solve's index does: every
    // vertex's articulation query, plus all pairs of the pair queries on a
    // small graph and a fixed random batch of them on a larger one.
    let n = g.n() as V;
    let mut queries: Vec<Query> = (0..n).map(Query::IsArticulation).collect();
    if n <= 64 {
        for u in 0..n {
            for v in 0..n {
                queries.push(Query::SameBcc(u, v));
                queries.push(Query::IsBridge(u, v));
                queries.push(Query::CutVerticesOnPath(u, v));
            }
        }
    } else {
        queries.extend(random_mixed_batch(g.n(), 4096, 0x5EED));
    }
    let (ix, fresh_ix) = (engine.build_index(), fresh.build_index());
    assert_eq!(
        (ix.num_blocks(), ix.num_cuts()),
        (fresh_ix.num_blocks(), fresh_ix.num_cuts()),
        "index node counts {ctx}"
    );
    let mut scratch = QueryScratch::new();
    let got = ix.answer_batch(&queries, &mut scratch).to_vec();
    assert_eq!(
        got,
        fresh_ix.answer_batch(&queries, &mut scratch),
        "index answers {ctx}"
    );
}

/// The canonical undirected edge list of `g` (u < v, sorted).
fn edge_list(g: &Graph) -> Vec<(V, V)> {
    let mut edges = Vec::with_capacity(g.m_undirected());
    for u in 0..g.n() as V {
        for &w in g.neighbors(u) {
            if u < w {
                edges.push((u, w));
            }
        }
    }
    edges
}

/// A batch script: per batch, raw insertion pairs plus *indices* into the
/// live edge list at application time — so deletions always strike present
/// edges (bridges and tree edges included) instead of being normalized
/// away.
type Script = Vec<(Vec<(V, V)>, Vec<usize>)>;

fn arb_scripted_graph(
    nmax: usize,
    mmax: usize,
) -> impl Strategy<Value = (usize, Vec<(V, V)>, Script)> {
    (5..nmax).prop_flat_map(move |n| {
        (
            Just(n),
            proptest::collection::vec((0..n as V, 0..n as V), 0..mmax),
            proptest::collection::vec(
                (
                    proptest::collection::vec((0..n as V, 0..n as V), 0..6),
                    proptest::collection::vec(0usize..usize::MAX, 0..6),
                ),
                1..6,
            ),
        )
    })
}

/// Run `script` at thread budget `budget` against both the incremental
/// engine and a mirrored edge set, checking full equivalence after every
/// batch. Every assertion message carries the `run_script` call that
/// reproduces it.
fn run_script(n: usize, init: &[(V, V)], script: &Script, budget: usize) {
    with_threads(budget, || run_script_here(n, init, script, budget));
}

fn run_script_here(n: usize, init: &[(V, V)], script: &Script, budget: usize) {
    let repro = format!("run_script(n={n}, init={init:?}, script={script:?}, budget={budget})");
    let g0 = builder::from_edges(n, init);
    let mut live = edge_list(&g0);
    let mut engine = BccEngine::new(BccOpts::default());
    engine.attach(&g0);

    for (bi, (adds, del_picks)) in script.iter().enumerate() {
        let mut dels: Vec<(V, V)> = del_picks
            .iter()
            .filter(|_| !live.is_empty())
            .map(|&i| live[i % live.len()])
            .collect();
        dels.sort_unstable();
        dels.dedup();

        engine.apply_batch(adds, &dels);

        live.retain(|e| !dels.contains(e));
        for &(a, b) in adds {
            let e = (a.min(b), a.max(b));
            if e.0 != e.1 && !live.contains(&e) {
                live.push(e);
            }
        }
        live.sort_unstable();
        let report = engine.last_apply_report().expect("batch ran");
        assert_eq!(
            edge_list(engine.graph().unwrap()),
            live,
            "edge mirror diverged at batch {bi}; reproduce: {repro}"
        );
        assert_matches_fresh(
            &engine,
            &format!("batch {bi} ({report:?}); reproduce: {repro}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Arbitrary add/del scripts under the shipped churn threshold: small
    /// graphs force the full-solve fallback often, which must be just as
    /// exact as the incremental paths. (The same scripts with the churn
    /// gate off run as a unit test in `dynamic.rs`, where the gate is
    /// reachable.)
    #[test]
    fn default_threshold_batches_match_fresh_solves(
        (n, init, script) in arb_scripted_graph(30, 40)
    ) {
        for budget in [1, DFS_MAX_BUDGET, DFS_MAX_BUDGET + 1] {
            run_script(n, &init, &script, budget);
        }
    }
}

/// Deterministic disconnect/reconnect ride-through: cut a ring into arcs,
/// sever them into separate components, then stitch everything back —
/// exercising bridge deletions, component splits, cross-component
/// insertions (including at non-root vertices), and block re-merges in
/// one scripted life cycle.
#[test]
fn disconnect_then_reconnect_round_trip() {
    for budget in [1, DFS_MAX_BUDGET, DFS_MAX_BUDGET + 1] {
        with_threads(budget, round_trip);
    }
}

fn round_trip() {
    use fast_bcc::graph::generators::classic::cycle;
    let n: V = 60;
    let g0 = cycle(n as usize);
    let mut engine = BccEngine::new(BccOpts::default());
    engine.attach(&g0);

    // One cycle edge gone: a single path-shaped component, all bridges.
    engine.apply_batch(&[], &[(0, n - 1)]);
    assert_matches_fresh(&engine, "cycle minus one edge");
    assert_eq!(engine.result().num_cc, 1);

    // Two more cuts: three separate path components.
    engine.apply_batch(&[], &[(19, 20), (39, 40)]);
    assert_matches_fresh(&engine, "three arcs");
    assert_eq!(engine.result().num_cc, 3);

    // Reconnect the middle arc to both outer arcs at interior vertices —
    // cross-component insertions where neither endpoint is a tree root.
    engine.apply_batch(&[(10, 30), (30, 50)], &[]);
    assert_matches_fresh(&engine, "stitched back");
    assert_eq!(engine.result().num_cc, 1);

    // Close a ring over the seams: the chord turns the stitched spine
    // into one large block again.
    engine.apply_batch(&[(10, 50)], &[]);
    assert_matches_fresh(&engine, "ring closed");
    assert_eq!(engine.result().num_cc, 1);
}

/// perfbench's three delta streams at its test sizes (`Workload::tiny`,
/// seed 1): R-MAT scale 10 from 12,000 samples, a road-like random
/// geometric graph on 3,000 points and the 10-NN graph of 2,000 points,
/// with 40, 40 and 120 deltas of 32 deletions and 32 insertions each,
/// drawn as perfbench draws them (`fastbcc_bench::churn::churn_batch`).
/// Every delta goes through `apply_batch` at budget 1, where perfbench's
/// rebuilder runs it, and one worker past `DFS_MAX_BUDGET`, and the result
/// must match a fresh solve after each.
#[test]
fn perfbench_delta_streams_match_fresh_solves() {
    use fast_bcc::graph::generators::geometric::road_like_radius;
    use fast_bcc::graph::generators::{knn, random_geometric, rmat};
    use fastbcc_bench::churn::{churn_batch, live_edges, ChurnRng};
    let seed = 1;
    for (name, g0, count) in [
        ("powerlaw", rmat(10, 12_000, seed), 40),
        (
            "road",
            random_geometric(3000, road_like_radius(3000), seed),
            40,
        ),
        ("knn", knn(2000, 10, seed), 120),
    ] {
        let mut rng = ChurnRng::new(seed ^ 0xDE17A);
        let mut live = live_edges(&g0);
        let frac = 32.0 / live.len() as f64;
        let (mut scratch, mut cur) = (DeltaScratch::new(), g0.clone());
        let mut deltas = Vec::with_capacity(count);
        for _ in 0..count {
            let d = churn_batch(&cur, &mut live, frac, &mut rng);
            let next = apply_delta(&cur, &d, &mut scratch);
            scratch.recycle(std::mem::replace(&mut cur, next));
            deltas.push(d);
        }
        for budget in [1, DFS_MAX_BUDGET + 1] {
            with_threads(budget, || {
                let mut engine = BccEngine::new(BccOpts::default());
                engine.attach(&g0);
                for (i, d) in deltas.iter().enumerate() {
                    engine.apply_batch(&d.adds, &d.dels);
                    let report = engine.last_apply_report().expect("batch ran");
                    assert_matches_fresh(
                        &engine,
                        &format!("{name} delta {i} at budget {budget} ({report:?})"),
                    );
                }
                assert_eq!(engine.graph(), Some(&cur), "{name} at budget {budget}");
            });
        }
    }
}
