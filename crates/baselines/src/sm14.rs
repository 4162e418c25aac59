//! Slota–Madduri-style BCC (HiPC'14) — the **SM'14** baseline.
//!
//! Behavioural stand-in for the better of the two SM'14 algorithms (the
//! baseline of the paper's evaluation, §6): a BFS spanning tree provides the skeleton exactly as in
//! [`crate::bfs_bcc()`](crate::bfs_bcc::bfs_bcc), but the skeleton's connected components are found by
//! **iterative min-label propagation** instead of union–find — the
//! coloring style of SM'14's BCC-Color. Two fidelity-relevant properties
//! are preserved:
//!
//! 1. **Connected inputs only.** The real implementation assumes one
//!    component ("through correspondence with the authors … requires the
//!    input graph to be connected"); disconnected inputs return
//!    [`Sm14Unsupported`], which the harness prints as the paper's `n`.
//! 2. **Propagation rounds ∝ component diameter.** On chains/grids the
//!    round count explodes — reproducing the scalability collapse of
//!    Tab. 2 (red entries) and Fig. 4.

use crate::bfs_tags::bfs_tags;
use fastbcc_connectivity::bfs::{bfs_forest_in, BfsScratch};
use fastbcc_core::algo::{assign_heads, BccResult, Breakdown};
use fastbcc_graph::{Graph, V};
use fastbcc_primitives::atomics::{as_atomic_u32, write_min_u32};
use fastbcc_primitives::edgemap::EdgeMapMode;
use fastbcc_primitives::par::par_for;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Error returned on disconnected input (reported as `n` in Tab. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sm14Unsupported;

impl std::fmt::Display for Sm14Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SM'14 requires a connected input graph")
    }
}

impl std::error::Error for Sm14Unsupported {}

/// Run the SM'14-style BCC algorithm. Errors on disconnected inputs.
pub fn sm14(g: &Graph) -> Result<BccResult, Sm14Unsupported> {
    let mut scratch = BfsScratch::new();
    sm14_in(g, &mut scratch)
}

/// [`sm14`] with a caller-owned [`BfsScratch`] for the rooting phase
/// (warm repeated calls reuse the BFS forest arrays and frontier
/// staging).
pub fn sm14_in(g: &Graph, scratch: &mut BfsScratch) -> Result<BccResult, Sm14Unsupported> {
    let n = g.n();
    if n == 0 {
        return Err(Sm14Unsupported);
    }

    // ---- Rooting: BFS tree (also detects disconnectedness) ---------------
    let t1 = Instant::now();
    bfs_forest_in(g, EdgeMapMode::Auto, scratch);
    let forest = &scratch.forest;
    if forest.roots.len() != 1 {
        return Err(Sm14Unsupported);
    }
    let rooting = t1.elapsed();

    // ---- Tagging ----------------------------------------------------------
    let t2 = Instant::now();
    let tags = bfs_tags(g, forest);
    let tagging = t2.elapsed();

    // ---- Last-CC: min-label propagation over the implicit skeleton -------
    let t3 = Instant::now();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    {
        let lab = as_atomic_u32(&mut labels);
        let changed = AtomicBool::new(true);
        while changed.swap(false, Ordering::Relaxed) {
            par_for(n, |ui| {
                let u = ui as V;
                let lu = lab[ui].load(Ordering::Relaxed);
                for &v in g.neighbors(u) {
                    if tags.in_skeleton(u, v) {
                        // Pull the neighbor's smaller label.
                        let lv = lab[v as usize].load(Ordering::Relaxed);
                        if lv < lu && write_min_u32(&lab[ui], lv) {
                            changed.store(true, Ordering::Relaxed);
                        } else if lu < lv && write_min_u32(&lab[v as usize], lu) {
                            changed.store(true, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    }
    let (head, label_count, num_bcc) = assign_heads(&labels, &tags);
    let last_cc = t3.elapsed();

    Ok(BccResult {
        labels,
        head,
        label_count,
        num_bcc,
        num_cc: 1,
        breakdown: Breakdown {
            first_cc: std::time::Duration::ZERO,
            rooting,
            tagging,
            last_cc,
        },
        aux_peak_bytes: 4 * n * 8,
        // The baselines allocate everything fresh on every call.
        fresh_alloc_bytes: 4 * n * 8,
        // ... and stage nothing in per-worker arenas.
        arena_bytes: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_tarjan::hopcroft_tarjan;
    use fastbcc_core::postprocess::canonical_bccs;
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::generators::grid2d;

    fn check(g: &Graph) {
        let got = canonical_bccs(&sm14(g).expect("connected input"));
        let want = hopcroft_tarjan(g, true).bccs.unwrap();
        assert_eq!(got, want, "n={} m={}", g.n(), g.m());
    }

    #[test]
    fn matches_hopcroft_tarjan_on_connected_zoo() {
        for g in [
            path(25),
            cycle(14),
            star(11),
            complete(8),
            windmill(7),
            barbell(5, 2),
            petersen(),
            clique_chain(6, 3),
            grid2d(9, 12, true),
        ] {
            check(&g);
        }
    }

    #[test]
    fn rejects_disconnected() {
        let g = disjoint_union(&[&cycle(4), &cycle(5)]);
        assert_eq!(sm14(&g).err(), Some(Sm14Unsupported));
        assert_eq!(sm14(&Graph::empty(3)).err(), Some(Sm14Unsupported));
        assert_eq!(sm14(&Graph::empty(0)).err(), Some(Sm14Unsupported));
    }

    #[test]
    fn single_vertex_is_connected() {
        let r = sm14(&Graph::empty(1)).unwrap();
        assert_eq!(r.num_bcc, 0);
    }
}
