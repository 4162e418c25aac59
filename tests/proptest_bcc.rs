//! Property-based testing (experiment E8): on arbitrary random graphs,
//! FAST-BCC's output, and the budget-1 engine's DFS solve's, must match the
//! sequential Hopcroft–Tarjan oracle — BCC sets, articulation points, and
//! bridges — and the `O(n)` representation must satisfy its own
//! invariants on both. A random vertex relabelling must map every answer
//! through the permutation.

use fast_bcc::baselines::hopcroft_tarjan;
use fast_bcc::prelude::*;
use proptest::prelude::*;

/// Arbitrary graph: up to `nmax` vertices, arbitrary edge pairs (dupes and
/// loops exercised deliberately — the builder must sanitize them).
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (2..nmax).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as V, 0..n as V), 0..mmax)
            .prop_map(move |edges| builder::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn fast_bcc_matches_oracle(g in arb_graph(48, 120)) {
        let want = hopcroft_tarjan(&g, true);
        let want_sets = want.bccs.unwrap();
        let fast = fast_bcc(&g, BccOpts::default());
        let mut engine = BccEngine::new(BccOpts::default());
        // The budget-1 engine solve is the DFS.
        let dfs = with_threads(1, || engine.solve(&g));
        for r in [&fast, dfs] {
            prop_assert_eq!(r.num_bcc, want.num_bcc);
            prop_assert_eq!(r.num_cc, fast.num_cc);
            prop_assert_eq!(&canonical_bccs(r), &want_sets);
            prop_assert_eq!(&articulation_points(r), &want.articulation_points);
            let mut got: Vec<(V, V)> =
                bridges(r).into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want.bridges);
        }
    }

    #[test]
    fn representation_invariants(g in arb_graph(40, 90)) {
        check_representation(&g, &fast_bcc(&g, BccOpts::default()))?;
        with_threads(1, || check_representation(&g, BccEngine::new(BccOpts::default()).solve(&g)))?;
    }

    #[test]
    fn biconnected_pairs_share_labels(g in arb_graph(28, 60)) {
        // Vertices in one oracle BCC of size >= 3 must be pairwise
        // label-connected in our representation: all non-head members share
        // a label.
        let r = fast_bcc(&g, BccOpts::default());
        let want = hopcroft_tarjan(&g, true);
        for bcc in want.bccs.unwrap() {
            if bcc.len() < 2 {
                continue;
            }
            // Each our-BCC (label class ∪ head) must contain this set
            // exactly once; weaker but sufficient: the set of our canonical
            // BCCs contains `bcc` (already checked in the equality test),
            // so here we check the label arithmetic directly: members minus
            // at most one head share one label.
            let mut labels: Vec<u32> = Vec::new();
            for &v in &bcc {
                labels.push(r.labels[v as usize]);
            }
            labels.sort_unstable();
            labels.dedup();
            prop_assert!(
                labels.len() <= 2,
                "BCC {:?} spans {} labels", bcc, labels.len()
            );
        }
    }

    #[test]
    fn same_bcc_query_matches_oracle(g in arb_graph(24, 50)) {
        let r = fast_bcc(&g, BccOpts::default());
        let want = hopcroft_tarjan(&g, true).bccs.unwrap();
        let n = g.n();
        // Oracle pair-membership matrix.
        let mut share = vec![false; n * n];
        for bcc in &want {
            for &a in bcc {
                for &b in bcc {
                    share[a as usize * n + b as usize] = true;
                }
            }
        }
        for u in 0..n as V {
            for v in 0..n as V {
                if u != v {
                    prop_assert_eq!(
                        r.same_bcc(u, v),
                        share[u as usize * n + v as usize],
                        "pair ({}, {})", u, v
                    );
                }
            }
        }
    }

    #[test]
    fn block_cut_tree_is_a_forest(g in arb_graph(40, 90)) {
        check_block_cut_tree(&fast_bcc(&g, BccOpts::default()))?;
        with_threads(1, || check_block_cut_tree(BccEngine::new(BccOpts::default()).solve(&g)))?;
    }

    #[test]
    fn relabelling_maps_every_answer_through_the_permutation(
        g in arb_graph(40, 90),
        seed in any::<u64>(),
    ) {
        let n = g.n();
        let mut perm: Vec<V> = (0..n as V).collect();
        fast_bcc::primitives::rng::Rng::new(seed).shuffle(&mut perm);
        let h = fast_bcc::graph::permute::relabel(&g, &perm);
        let map = |v: V| perm[v as usize];
        let probe = random_mixed_batch(n, 256, seed);
        let mapped: Vec<Query> = probe
            .iter()
            .map(|&q| match q {
                Query::SameBcc(u, v) => Query::SameBcc(map(u), map(v)),
                Query::IsArticulation(v) => Query::IsArticulation(map(v)),
                Query::IsBridge(u, v) => Query::IsBridge(map(u), map(v)),
                Query::CutVerticesOnPath(u, v) => Query::CutVerticesOnPath(map(u), map(v)),
            })
            .collect();
        // Budget 1 solves by DFS, DFS_MAX_BUDGET + 1 by the pipeline.
        for budget in [1, fast_bcc::core::engine::DFS_MAX_BUDGET + 1] {
            let mut engines = [BccEngine::new(BccOpts::default()), BccEngine::new(BccOpts::default())];
            let [ea, eb] = &mut engines;
            let (a, b) = with_threads(budget, || (ea.solve(&g), eb.solve(&h)));
            let mut want: Vec<Vec<V>> = canonical_bccs(a)
                .into_iter()
                .map(|set| {
                    let mut set: Vec<V> = set.into_iter().map(map).collect();
                    set.sort_unstable();
                    set
                })
                .collect();
            want.sort_unstable();
            prop_assert_eq!(canonical_bccs(b), want, "budget {}", budget);
            let mut want: Vec<V> = articulation_points(a).into_iter().map(map).collect();
            want.sort_unstable();
            prop_assert_eq!(articulation_points(b), want, "budget {}", budget);
            let edge_set = |e: Vec<(V, V)>| {
                let mut e: Vec<(V, V)> = e.into_iter().map(|(x, y)| (x.min(y), x.max(y))).collect();
                e.sort_unstable();
                e
            };
            let want = edge_set(bridges(a).into_iter().map(|(x, y)| (map(x), map(y))).collect());
            prop_assert_eq!(edge_set(bridges(b)), want, "budget {}", budget);
            let (ta, tb) = (block_cut_tree(a), block_cut_tree(b));
            prop_assert_eq!(
                (ta.blocks.len(), ta.cuts.len()),
                (tb.blocks.len(), tb.cuts.len()),
                "budget {}", budget
            );
            let (ia, ib) = (BccIndex::build(a, &ta), BccIndex::build(b, &tb));
            for (q, m) in probe.iter().zip(&mapped) {
                prop_assert_eq!(ia.answer(*q), ib.answer(*m), "{:?} at budget {}", q, budget);
            }
        }
    }

    #[test]
    fn seq_and_parallel_schemes_agree(g in arb_graph(32, 70)) {
        let a = fast_bcc(&g, BccOpts::default());
        let b = fast_bcc(&g, BccOpts { scheme: CcScheme::UfAsync, ..Default::default() });
        let c = with_threads(1, || fast_bcc(&g, BccOpts::default()));
        prop_assert_eq!(a.num_bcc, b.num_bcc);
        prop_assert_eq!(a.num_bcc, c.num_bcc);
        prop_assert_eq!(canonical_bccs(&a), canonical_bccs(&b));
        prop_assert_eq!(canonical_bccs(&a), canonical_bccs(&c));
    }
}

/// The block–cut forest of `r` against the result's own tallies: its
/// parent pointers climb to a root within `node_count` steps, blocks and
/// cuts alternate along them, its cuts are the articulation points, its
/// blocks the BCCs, and each cut's forest degree (children plus parent) is
/// the number of BCCs the vertex belongs to.
fn check_block_cut_tree(r: &BccResult) -> Result<(), TestCaseError> {
    let t = block_cut_tree(r);
    let (nb, nodes) = (t.blocks.len(), t.node_count());
    prop_assert_eq!(&t.cuts, &articulation_points(r));
    prop_assert_eq!(nb, r.num_bcc);
    let mut degree = vec![0usize; nodes];
    for x in 0..nodes {
        let p = t.parent[x];
        if p != NONE {
            prop_assert!(
                (x < nb) != ((p as usize) < nb),
                "node {} hangs under node {} of its own kind",
                x,
                p
            );
            degree[x] += 1;
            degree[p as usize] += 1;
        }
        let (mut y, mut steps) = (x, 0);
        while t.parent[y] != NONE {
            y = t.parent[y] as usize;
            steps += 1;
            prop_assert!(steps < nodes, "parent pointers from node {} cycle", x);
        }
    }
    let counts = bcc_membership_counts(r);
    for (i, &c) in t.cuts.iter().enumerate() {
        prop_assert_eq!(degree[nb + i], counts[c as usize] as usize, "cut {}", c);
    }
    Ok(())
}

/// The `O(n)` representation's own invariants on a result of `g`.
fn check_representation(g: &Graph, r: &BccResult) -> Result<(), TestCaseError> {
    let n = g.n();
    // Labels index real vertices, label_count is their histogram, every
    // class reaches its head and the head forest is acyclic, and the
    // census recounts (the checks `apply_batch` results must pass too).
    r.verify_representation(g).map_err(TestCaseError::fail)?;
    // A head never belongs to the label it heads.
    for l in 0..n {
        let h = r.head[l];
        if h != NONE {
            prop_assert_ne!(r.labels[h as usize], l as u32);
        }
    }
    // Heads are articulation points or tree roots (Lemma 4.4).
    let aps: std::collections::HashSet<V> = articulation_points(r).into_iter().collect();
    for l in 0..n {
        let h = r.head[l];
        if h != NONE && r.is_bcc_label(l as u32) {
            let is_root = r.labels[h as usize] == h && r.head[h as usize] == NONE;
            prop_assert!(
                aps.contains(&h) || is_root,
                "head {} neither articulation nor root",
                h
            );
        }
    }
    Ok(())
}
