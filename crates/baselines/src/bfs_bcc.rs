//! BFS-skeleton BCC in the style of GBBS [Dhulipala–Blelloch–Shun, TOPC'21]
//! — the **GBBS** baseline of the paper's tables.
//!
//! Same skeleton-connectivity structure as FAST-BCC, with the two phases
//! that the paper shows dominating on large-diameter graphs swapped in:
//!
//! * **First-CC** — connectivity only (no forest by-product);
//! * **Rooting** — a *BFS* of the input graph to build the spanning forest
//!   (`O(diam(G) · log n)` span — this is the red bar of Fig. 5);
//! * **Tagging** — level-synchronous sweeps over the BFS tree
//!   ([`crate::bfs_tags`], also diameter-bound);
//! * **Last-CC** — identical implicit-skeleton connectivity (UF-Async, as
//!   recent GBBS uses) plus head assignment.
//!
//! Because the BFS tree admits no back edges, the `InSkeleton` test
//! degenerates to the sparse-certificate rule of the BFS-based algorithms;
//! the predicates are shared with FAST-BCC for exact output compatibility.

use crate::bfs_tags::bfs_tags;
use fastbcc_connectivity::bfs::{bfs_forest_in, BfsScratch};
use fastbcc_connectivity::cc::{ldd_uf_jtb, uf_async_filtered, CcOpts};
use fastbcc_connectivity::ldd::LddOpts;
use fastbcc_core::algo::{assign_heads, BccResult, Breakdown};
use fastbcc_graph::{Graph, V};
use fastbcc_primitives::edgemap::EdgeMapMode;
use std::time::Instant;

/// Run the BFS-skeleton BCC algorithm (one-shot; see [`bfs_bcc_in`] for
/// the warm-rooting variant).
pub fn bfs_bcc(g: &Graph, seed: u64) -> BccResult {
    let mut scratch = BfsScratch::new();
    bfs_bcc_in(g, seed, &mut scratch)
}

/// [`bfs_bcc`] with a caller-owned [`BfsScratch`]: the rooting phase's
/// three `O(n)` forest arrays and its frontier staging are reused across
/// calls, so a warm repeated-query loop pays no rooting allocations (the
/// tagging and CC phases still allocate — the baseline pools nothing
/// else, as the paper's GBBS configuration doesn't either).
pub fn bfs_bcc_in(g: &Graph, seed: u64, scratch: &mut BfsScratch) -> BccResult {
    let n = g.n();

    // ---- First-CC: labels only ------------------------------------------
    let t0 = Instant::now();
    let cc = ldd_uf_jtb(
        g,
        CcOpts {
            ldd: LddOpts {
                seed,
                ..Default::default()
            },
            want_forest: false,
        },
    );
    let first_cc = t0.elapsed();

    // ---- Rooting: BFS forest (the diameter-bound phase) -------------------
    let t1 = Instant::now();
    bfs_forest_in(g, EdgeMapMode::Auto, scratch);
    let forest = &scratch.forest;
    let rooting = t1.elapsed();

    // ---- Tagging: level-synchronous sweeps -------------------------------
    let t2 = Instant::now();
    let tags = bfs_tags(g, forest);
    let tagging = t2.elapsed();

    // ---- Last-CC: implicit skeleton + heads -------------------------------
    let t3 = Instant::now();
    let filter = |u: V, v: V| tags.in_skeleton(u, v);
    let sk = uf_async_filtered(g, false, &filter);
    let labels = sk.labels;
    let (head, label_count, num_bcc) = assign_heads(&labels, &tags);
    let last_cc = t3.elapsed();

    BccResult {
        labels,
        head,
        label_count,
        num_bcc,
        num_cc: cc.num_components,
        breakdown: Breakdown {
            first_cc,
            rooting,
            tagging,
            last_cc,
        },
        // Analytic accounting, comparable to FAST-BCC's: CC + skeleton
        // labels (8n), BFS forest parent/level/root (12n), tags (20n),
        // bfs_tags working set — children + offsets + sizes + level groups
        // (≈28n) — all Θ(n); the paper reports GBBS ≈20 % leaner than
        // FAST-BCC, which carries the tour and two RMQ structures extra.
        aux_peak_bytes: 4 * n * 17,
        // The baselines allocate everything fresh on every call.
        fresh_alloc_bytes: 4 * n * 17,
        // ... and stage nothing in per-worker arenas.
        arena_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_tarjan::hopcroft_tarjan;
    use fastbcc_core::postprocess::canonical_bccs;
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::generators::{grid2d, knn, random_geometric, rmat};

    fn check(g: &Graph) {
        let got = canonical_bccs(&bfs_bcc(g, 11));
        let want = hopcroft_tarjan(g, true).bccs.unwrap();
        assert_eq!(got, want, "n={} m={}", g.n(), g.m());
    }

    #[test]
    fn matches_hopcroft_tarjan_on_zoo() {
        for g in [
            path(25),
            cycle(14),
            star(11),
            complete(8),
            windmill(7),
            barbell(5, 2),
            petersen(),
            theta(3, 1, 2),
            clique_chain(6, 3),
            wheel(9),
            ladder(7),
            disjoint_union(&[&cycle(6), &windmill(3), &path(4)]),
            Graph::empty(6),
        ] {
            check(&g);
        }
    }

    #[test]
    fn matches_on_generated() {
        check(&grid2d(11, 13, true));
        check(&rmat(9, 2500, 3));
        check(&knn(500, 4, 21));
        check(&random_geometric(700, 0.05, 5));
    }

    #[test]
    fn warm_scratch_reuse_matches_and_stays_allocation_free() {
        let g = grid2d(20, 20, true);
        let mut scratch = BfsScratch::new();
        let first = canonical_bccs(&bfs_bcc_in(&g, 11, &mut scratch));
        let bytes = scratch.heap_bytes();
        assert!(bytes > 0);
        for _ in 0..2 {
            let again = canonical_bccs(&bfs_bcc_in(&g, 11, &mut scratch));
            assert_eq!(again, first);
            assert_eq!(
                scratch.heap_bytes(),
                bytes,
                "warm rooting grew the BFS scratch"
            );
        }
        // The same scratch serves the SM'14 baseline too.
        let r = crate::sm14::sm14_in(&g, &mut scratch).expect("grid is connected");
        assert_eq!(canonical_bccs(&r), first);
    }

    #[test]
    fn breakdown_rooting_dominates_on_chains() {
        // The GBBS signature: on a chain, BFS rooting + tagging dwarf the
        // CC phases. We only assert the phases are populated (timing ratios
        // are asserted in the benchmark harness, not unit tests).
        let g = path(20_000);
        let r = bfs_bcc(&g, 1);
        assert_eq!(r.num_bcc, 19_999);
        assert!(r.breakdown.rooting.as_nanos() > 0);
    }
}
