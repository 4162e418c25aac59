//! Property-based tests for the graph substrate: the CSR builder's
//! sanitization invariants, relabeling round-trips, and serialization.

use fastbcc_graph::builder::from_edges;
use fastbcc_graph::permute::{identity, is_permutation, relabel};
use fastbcc_graph::{io, V};
use proptest::prelude::*;

fn arb_edges(nmax: usize, mmax: usize) -> impl Strategy<Value = (usize, Vec<(V, V)>)> {
    (1..nmax).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as V, 0..n as V), 0..mmax).prop_map(move |edges| (n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn builder_sanitizes_and_preserves((n, edges) in arb_edges(60, 200)) {
        let g = from_edges(n, &edges);
        prop_assert_eq!(g.n(), n);
        prop_assert!(g.is_symmetric());
        prop_assert!(!g.has_self_loops());
        prop_assert!(!g.has_multi_edges());
        // Exactly the non-loop input edges survive.
        let mut want: Vec<(V, V)> = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        want.sort_unstable();
        want.dedup();
        let mut got: Vec<(V, V)> = g.iter_edges().collect();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn neighbor_lists_sorted_and_offsets_monotone((n, edges) in arb_edges(50, 150)) {
        let g = from_edges(n, &edges);
        for v in 0..n as V {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "vertex {} list unsorted", v);
        }
        prop_assert!(g.offsets().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn relabel_roundtrip((n, edges) in arb_edges(40, 120), seed in any::<u64>()) {
        let g = from_edges(n, &edges);
        let mut perm = identity(n);
        let mut r = fastbcc_primitives::rng::Rng::new(seed);
        r.shuffle(&mut perm);
        prop_assert!(is_permutation(&perm));
        let h = relabel(&g, &perm);
        prop_assert_eq!(h.m(), g.m());
        // Inverse brings it back.
        let mut inv = vec![0 as V; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as V;
        }
        prop_assert_eq!(relabel(&h, &inv), g);
    }

    #[test]
    fn text_io_roundtrip((n, edges) in arb_edges(40, 100)) {
        let g = from_edges(n, &edges);
        let path = std::env::temp_dir().join(format!(
            "fastbcc_prop_io_{}_{}.txt",
            std::process::id(),
            g.m()
        ));
        io::save_adjacency_text(&g, &path).unwrap();
        let h = io::load_adjacency_text(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn degree_sum_equals_arc_count((n, edges) in arb_edges(50, 200)) {
        let g = from_edges(n, &edges);
        let total: usize = (0..n as V).map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, g.m());
    }
}
