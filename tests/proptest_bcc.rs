//! Property-based testing (experiment E8): on arbitrary random graphs,
//! FAST-BCC's output, and the budget-1 engine's DFS solve's, must match the
//! sequential Hopcroft–Tarjan oracle — BCC sets, articulation points, and
//! bridges — and the `O(n)` representation must satisfy its own
//! invariants on both.

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
        let r = fast_bcc(&g, BccOpts::default());
        let t = fast_bcc::core::block_cut_tree::block_cut_tree(&r);
        t.verify_forest();
        // Cuts are exactly the articulation points.
        prop_assert_eq!(t.cuts, articulation_points(&r));
        // Every block node is a real BCC label; counts match.
        prop_assert_eq!(t.blocks.len(), r.num_bcc);
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

/// The `O(n)` representation's own invariants on a result of `g`.
fn check_representation(g: &Graph, r: &BccResult) -> Result<(), TestCaseError> {
    let n = g.n();
    // Labels index real vertices, label_count is their histogram, the
    // parent forest hangs every class under its head, and the census
    // recounts (the checks `apply_batch` results must pass too).
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
            let is_root = r.tags.parent[h as usize] == NONE;
            prop_assert!(
                aps.contains(&h) || is_root,
                "head {} neither articulation nor root",
                h
            );
        }
    }
    Ok(())
}
