//! Query-index acceptance tests: every [`BccIndex`] answer is checked
//! against ground truth derived from the sequential Hopcroft–Tarjan oracle
//! (membership sets for `same_bcc`, the articulation/bridge lists, and a
//! brute-force "remove w, is u still connected to v?" sweep for the path
//! separator counts), on the generator zoo and on random proptest graphs.
//! Batched answering must be bit-identical to sequential answering at
//! every thread budget, and warm batches must allocate nothing.

use fast_bcc::baselines::hopcroft_tarjan;
use fast_bcc::prelude::*;
use proptest::prelude::*;

fn build_index(g: &Graph) -> (BccResult, BccIndex) {
    let r = fast_bcc(g, BccOpts::default());
    let ix = BccIndex::new(&r);
    (r, ix)
}

/// BFS connectivity from `src` to `dst`, optionally with one vertex removed.
fn connected_without(g: &Graph, src: V, dst: V, removed: Option<V>) -> bool {
    if Some(src) == removed || Some(dst) == removed {
        return false;
    }
    if src == dst {
        return true;
    }
    let mut seen = vec![false; g.n()];
    let mut queue = std::collections::VecDeque::from([src]);
    seen[src as usize] = true;
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if Some(w) == removed || seen[w as usize] {
                continue;
            }
            if w == dst {
                return true;
            }
            seen[w as usize] = true;
            queue.push_back(w);
        }
    }
    false
}

/// Oracle for `cut_vertices_on_path`: count articulation points (from the
/// HT list) that separate `u` from `v`; `None` when no path exists.
fn separators_truth(g: &Graph, aps: &[V], u: V, v: V) -> Option<u32> {
    if u == v {
        return Some(0);
    }
    if !connected_without(g, u, v, None) {
        return None;
    }
    Some(
        aps.iter()
            .filter(|&&w| w != u && w != v && !connected_without(g, u, v, Some(w)))
            .count() as u32,
    )
}

/// Oracle for `same_bcc` from HT's explicit component vertex sets.
fn same_bcc_truth(bccs: &[Vec<V>], u: V, v: V) -> bool {
    bccs.iter().any(|b| b.contains(&u) && b.contains(&v))
}

/// Check every query kind over all vertex pairs of a small graph.
fn check_all_pairs(g: &Graph) -> Result<(), TestCaseError> {
    let (_, ix) = build_index(g);
    let ht = hopcroft_tarjan(g, true);
    let bccs = ht.bccs.as_ref().unwrap();
    let n = g.n() as V;
    for v in 0..n {
        prop_assert_eq!(
            ix.is_articulation(v),
            ht.articulation_points.contains(&v),
            "is_articulation({})",
            v
        );
    }
    for u in 0..n {
        for v in 0..n {
            if u != v {
                prop_assert_eq!(
                    ix.same_bcc(u, v),
                    same_bcc_truth(bccs, u, v),
                    "same_bcc({}, {})",
                    u,
                    v
                );
            }
            prop_assert_eq!(
                ix.is_bridge(u, v),
                ht.bridges.contains(&(u.min(v), u.max(v))) && u != v,
                "is_bridge({}, {})",
                u,
                v
            );
            prop_assert_eq!(
                ix.cut_vertices_on_path(u, v),
                separators_truth(g, &ht.articulation_points, u, v),
                "cut_vertices_on_path({}, {})",
                u,
                v
            );
        }
    }
    Ok(())
}

#[test]
fn zoo_graphs_match_ground_truth() {
    use fast_bcc::graph::generators::classic::*;
    use fast_bcc::graph::generators::{grid2d, rmat};
    for g in [
        path(9),
        cycle(8),
        star(7),
        complete(6),
        windmill(4),
        barbell(4, 2),
        barbell(3, 1),
        clique_chain(4, 3),
        binary_tree(15),
        theta(2, 3, 4),
        petersen(),
        ladder(5),
        wheel(7),
        grid2d(4, 5, false),
        rmat(5, 60, 42),
        disjoint_union(&[&windmill(3), &path(4), &cycle(5), &Graph::empty(3)]),
        Graph::empty(4),
        path(2),
    ] {
        check_all_pairs(&g).unwrap();
    }
}

#[test]
fn batches_are_deterministic_across_thread_budgets() {
    use fast_bcc::graph::generators::{grid2d, rmat};
    for g in [rmat(8, 1200, 9), grid2d(20, 13, true)] {
        let (_, ix) = build_index(&g);
        let queries = random_mixed_batch(g.n(), 4096, 0xBA7C4);
        // Sequential reference: one answer() call per query.
        let want: Vec<QueryAnswer> = queries.iter().map(|&q| ix.answer(q)).collect();
        for budget in [1usize, 2, 4, 8] {
            let got = with_threads(budget, || {
                let mut scratch = QueryScratch::new();
                ix.answer_batch(&queries, &mut scratch).to_vec()
            });
            assert_eq!(got, want, "budget {budget}");
        }
    }
}

#[test]
fn warm_batches_allocate_nothing_at_every_budget() {
    use fast_bcc::graph::generators::rmat;
    let g = rmat(9, 2500, 17);
    let (_, ix) = build_index(&g);
    let queries = random_mixed_batch(g.n(), 8192, 0x5EED);
    // The default budget (FASTBCC_THREADS or hardware) plus pinned ones —
    // the acceptance criterion's {1, 4, default} matrix.
    let run = |scratch: &mut QueryScratch| {
        ix.answer_batch(&queries, scratch);
        let first = scratch.fresh_alloc_bytes();
        for round in 0..3 {
            ix.answer_batch(&queries, scratch);
            assert_eq!(
                scratch.fresh_alloc_bytes(),
                0,
                "warm batch allocated (round {round})"
            );
        }
        first
    };
    let mut scratch = QueryScratch::new();
    let first = run(&mut scratch); // default budget
    assert!(first > 0, "first batch must size the scratch");
    for budget in [1usize, 4] {
        with_threads(budget, || {
            // Same pooled scratch across budgets: still zero fresh bytes.
            ix.answer_batch(&queries, &mut scratch);
            assert_eq!(scratch.fresh_alloc_bytes(), 0, "budget {budget}");
            let mut cold = QueryScratch::with_capacity(queries.len());
            ix.answer_batch(&queries, &mut cold);
            assert_eq!(
                cold.fresh_alloc_bytes(),
                0,
                "pre-sized scratch allocated at budget {budget}"
            );
        });
    }
}

#[test]
fn engine_build_index_matches_standalone_build() {
    use fast_bcc::graph::generators::classic::{clique_chain, windmill};
    let mut engine = BccEngine::new(BccOpts::default());
    for g in [windmill(5), clique_chain(4, 4)] {
        engine.solve(&g);
        let from_engine = engine.build_index();
        let (_, standalone) = build_index(&g);
        let queries = random_mixed_batch(g.n(), 512, 3);
        for &q in &queries {
            assert_eq!(from_engine.answer(q), standalone.answer(q), "{q:?}");
        }
        assert_eq!(from_engine.bytes(), standalone.bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_graphs_match_ground_truth(
        n in 2usize..24,
        edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
    ) {
        let edges: Vec<(V, V)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = builder::from_edges(n, &edges);
        check_all_pairs(&g)?;
    }

    #[test]
    fn random_batches_match_sequential_answers(
        n in 2usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        seed in 0u64..1000,
    ) {
        let edges: Vec<(V, V)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = builder::from_edges(n, &edges);
        let (_, ix) = build_index(&g);
        let queries = random_mixed_batch(n, 256, seed);
        let mut scratch = QueryScratch::new();
        let got = ix.answer_batch(&queries, &mut scratch).to_vec();
        for (i, (&q, &a)) in queries.iter().zip(got.iter()).enumerate() {
            prop_assert_eq!(a, ix.answer(q), "query {} = {:?}", i, q);
        }
    }
}
