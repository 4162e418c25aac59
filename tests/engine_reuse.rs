//! Engine-reuse property tests: a scratch-pooled [`BccEngine`] solving
//! graph A and then graph B must behave exactly like fresh [`fast_bcc`]
//! calls — its FAST-BCC pipeline (`solve_fast_bcc`) bit-identical in
//! labels/heads/counts under a single worker (where execution is
//! deterministic), semantically identical always — and both, together
//! with the budget-1 DFS `solve`, must agree with the sequential
//! Hopcroft–Tarjan oracle. The second solve of a same-shaped input must
//! not grow the workspace at all, on either path.

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
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn engine_reuse_is_bit_identical_to_fresh_calls(
        a in arb_graph(40, 100),
        b in arb_graph(40, 100),
    ) {
        // One worker: identical schedules, so even the racy Last-CC labels
        // must come out bit-identical between pooled and fresh solves.
        let checked = with_threads(1, || -> Result<(), TestCaseError> {
            let mut engine = BccEngine::new(BccOpts::default());
            for g in [&a, &b] {
                let fresh = fast_bcc(g, BccOpts::default());
                // The tags are solver scratch: compare them on a second,
                // fresh engine.
                let mut fresh_engine = BccEngine::new(BccOpts::default());
                fresh_engine.solve_fast_bcc(g);
                engine.solve_fast_bcc(g);
                let (t, ft) = (engine.tags(), fresh_engine.tags());
                prop_assert_eq!(&t.parent, &ft.parent);
                prop_assert_eq!(&t.low, &ft.low);
                prop_assert_eq!(&t.high, &ft.high);
                let pooled = engine.result();
                prop_assert_eq!(pooled.num_bcc, fresh.num_bcc);
                prop_assert_eq!(pooled.num_cc, fresh.num_cc);
                prop_assert_eq!(&pooled.labels, &fresh.labels);
                prop_assert_eq!(&pooled.head, &fresh.head);
                prop_assert_eq!(&pooled.label_count, &fresh.label_count);

                // Cross-check both against the sequential oracle.
                let want = hopcroft_tarjan(g, true);
                prop_assert_eq!(pooled.num_bcc, want.num_bcc);
                let pooled_aps = articulation_points(pooled);
                prop_assert_eq!(&pooled_aps, &want.articulation_points);
                prop_assert_eq!(&articulation_points(&fresh), &pooled_aps);
                let want_sets = want.bccs.unwrap();
                prop_assert_eq!(&canonical_bccs(pooled), &want_sets);

                // The budget-1 `solve` is the DFS: same BCCs, cuts,
                // bridges and component count.
                let dfs = engine.solve(g);
                prop_assert_eq!(dfs.num_bcc, want.num_bcc);
                prop_assert_eq!(dfs.num_cc, fresh.num_cc);
                prop_assert_eq!(&canonical_bccs(dfs), &want_sets);
                prop_assert_eq!(&articulation_points(dfs), &want.articulation_points);
                let mut b: Vec<(V, V)> =
                    bridges(dfs).iter().map(|&(x, y)| (x.min(y), x.max(y))).collect();
                b.sort_unstable();
                prop_assert_eq!(&b, &want.bridges);
            }
            Ok(())
        });
        checked?;
    }

    #[test]
    fn engine_is_semantically_stable_under_default_parallelism(
        g in arb_graph(36, 90),
    ) {
        // Under real parallelism label values may differ run to run (CAS
        // races pick different representatives), but the BCC structure may
        // not.
        let fresh = fast_bcc(&g, BccOpts::default());
        let mut engine = BccEngine::new(BccOpts::default());
        engine.solve(&g);
        let again = engine.solve(&g);
        prop_assert_eq!(again.num_bcc, fresh.num_bcc);
        prop_assert_eq!(again.num_cc, fresh.num_cc);
        prop_assert_eq!(canonical_bccs(again), canonical_bccs(&fresh));
        prop_assert_eq!(articulation_points(again), articulation_points(&fresh));
    }

    #[test]
    fn repeat_solves_never_grow_the_workspace(g in arb_graph(48, 140)) {
        let grew = with_threads(1, || -> Result<(), TestCaseError> {
            let mut engine = BccEngine::new(BccOpts::default());
            engine.solve(&g);
            engine.solve_fast_bcc(&g);
            for round in 0..2 {
                let r = engine.solve(&g);
                prop_assert_eq!(r.fresh_alloc_bytes, 0, "DFS round {} grew the workspace", round);
                let r = engine.solve_fast_bcc(&g);
                prop_assert_eq!(r.fresh_alloc_bytes, 0, "pipeline round {} grew the workspace", round);
            }
            Ok(())
        });
        grew?;
    }
}
