//! The Tarjan–Vishkin algorithm (SIAM J. Comput. 1985) with the explicit
//! `O(m)` skeleton of the paper's Appendix A — **TV**.
//!
//! TV maps every edge of `G` to a vertex of an auxiliary graph
//! `G' = (E, E')` and connects two edge-vertices `(e₁, e₂)` iff one of:
//!
//! 1. `e₁ = (u, p(u))`, `e₂ = (u, v) ∈ G∖T` and `first[v] < first[u]`;
//! 2. `e₁ = (u, p(u))`, `e₂ = (v, p(v))` and `(u, v)` is a cross edge;
//! 3. `e₁ = (u, v)` with `v = p(u)` not the root, `e₂ = (v, p(v))`, and a
//!    non-tree edge `(x, y)` exists with `x ∈ T_u`, `y ∉ T_v`
//!    (equivalently `low[u] < first[v] ∨ high[u] > last[v]`).
//!
//! Connected components of `G'` are the BCCs of `G`. The skeleton is
//! **materialized** — that is the point: Fig. 7 measures the `O(m)` space
//! blow-up against FAST-BCC's `O(n)`, and Tab. 3 its runtime overhead.
//!
//! This implementation shares First-CC/Rooting/Tagging with FAST-BCC (the
//! tags are identical — TV is where they come from historically) and
//! differs exactly in the connectivity phase.

use fastbcc_connectivity::cc::{ldd_uf_jtb, CcOpts};
use fastbcc_connectivity::ldd::LddOpts;
use fastbcc_connectivity::spanning_forest::forest_adjacency;
use fastbcc_connectivity::ConcurrentUnionFind;
use fastbcc_core::tags::compute_tags;
use fastbcc_ett::root_forest;
use fastbcc_graph::{Graph, NONE, V};
use fastbcc_primitives::pack::pack_index_usize;
use fastbcc_primitives::par::{
    block_bounds, num_blocks, par_blocks_collect, par_for, DEFAULT_GRAIN,
};
use fastbcc_primitives::slice::{uninit_vec, UnsafeSlice};
use std::time::{Duration, Instant};

/// Tarjan–Vishkin result.
pub struct TvResult {
    /// BCC label per undirected edge (a representative edge index).
    pub edge_labels: Vec<u32>,
    /// The undirected edge list indexed by those labels.
    pub edges: Vec<(V, V)>,
    /// Number of BCCs.
    pub num_bcc: usize,
    /// Peak auxiliary bytes — dominated by the explicit skeleton.
    pub aux_peak_bytes: usize,
    /// Number of skeleton edges |E'| actually materialized.
    pub skeleton_edges: usize,
    /// End-to-end time.
    pub elapsed: Duration,
}

impl TvResult {
    /// Canonical BCC vertex sets (for cross-algorithm comparison).
    pub fn canonical_bccs(&self) -> Vec<Vec<V>> {
        let mut groups: std::collections::HashMap<u32, Vec<V>> = std::collections::HashMap::new();
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let l = self.edge_labels[i];
            let g = groups.entry(l).or_default();
            g.push(u);
            g.push(v);
        }
        let mut out: Vec<Vec<V>> = groups
            .into_values()
            .map(|mut g| {
                g.sort_unstable();
                g.dedup();
                g
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// Run Tarjan–Vishkin.
pub fn tarjan_vishkin(g: &Graph, seed: u64) -> TvResult {
    let t_start = Instant::now();
    let n = g.n();
    if n == 0 {
        return TvResult {
            edge_labels: Vec::new(),
            edges: Vec::new(),
            num_bcc: 0,
            aux_peak_bytes: 0,
            skeleton_edges: 0,
            elapsed: t_start.elapsed(),
        };
    }

    // --- shared prefix: spanning forest, rooting, tags -------------------
    let cc = ldd_uf_jtb(
        g,
        CcOpts {
            ldd: LddOpts {
                seed,
                ..Default::default()
            },
            want_forest: true,
        },
    );
    let forest = cc.forest.as_ref().unwrap();
    let tree = forest_adjacency(n, forest);
    let rf = root_forest(&tree, &cc.labels, seed ^ 0xE77);
    let (tags, table_bytes) = compute_tags(g, &rf);
    drop(rf);
    drop(tree);

    // --- undirected edge ids ---------------------------------------------
    // Edge i is the i-th arc with src < dst; eid_of_arc maps every arc to
    // its undirected id.
    let arcs = g.arcs();
    let src = arc_sources(g);
    let fwd_arcs = pack_index_usize(g.m(), |a| src[a] < arcs[a]);
    let m_edges = fwd_arcs.len();
    // SAFETY: every arc is either a forward arc or the twin of one, so the
    // scatter below writes all of `eid_of_arc` before it is read.
    let mut eid_of_arc: Vec<u32> = unsafe { uninit_vec(g.m()) };
    {
        let view = UnsafeSlice::new(&mut eid_of_arc);
        let src_ref = &src;
        par_for(m_edges, |e| {
            let a = fwd_arcs[e];
            let (u, v) = (src_ref[a], arcs[a]);
            // Reverse arc located by binary search in v's sorted list.
            let rev =
                g.arc_range(v).start + g.neighbors(v).binary_search(&u).expect("missing twin arc");
            // SAFETY: each arc written exactly once (once as forward, once
            // as the reverse of its twin).
            unsafe {
                view.write(a, e as u32);
                view.write(rev, e as u32);
            }
        });
    }
    let edges: Vec<(V, V)> = fwd_arcs.iter().map(|&a| (src[a], arcs[a])).collect();

    // Edge id of (v, p(v)) per non-root vertex.
    let mut tree_eid = vec![u32::MAX; n];
    {
        let view = UnsafeSlice::new(&mut tree_eid);
        let tags_ref = &tags;
        par_for(m_edges, |e| {
            let (u, v) = edges[e];
            if tags_ref.parent[u as usize] == v {
                // SAFETY: unique tree edge per child u.
                unsafe { view.write(u as usize, e as u32) };
            } else if tags_ref.parent[v as usize] == u {
                unsafe { view.write(v as usize, e as u32) };
            }
        });
    }

    // --- build E' (the explicit skeleton) --------------------------------
    let arc_bounds = block_bounds(g.m(), num_blocks(g.m(), DEFAULT_GRAIN));
    let skeleton: Vec<(u32, u32)> = par_blocks_collect(&arc_bounds, |_, arcs_in_block| {
        let mut acc = Vec::new();
        for a in arcs_in_block {
            let u = src[a];
            let v = arcs[a];
            let (ui, vi) = (u as usize, v as usize);
            let e_uv = eid_of_arc[a];
            if tags.parent[ui] == v {
                // a = (child u -> parent v): rule 3.
                if tags.parent[vi] != NONE {
                    let escapes = tags.low[ui] < tags.first[vi] || tags.high[ui] > tags.last[vi];
                    if escapes {
                        acc.push((e_uv, tree_eid[vi]));
                    }
                }
            } else if tags.parent[vi] != u {
                // Non-tree edge, processed from each endpoint once (u side).
                // Rule 1: connect (u, p(u)) with (u, v) when first[v] < first[u].
                if tags.first[vi] < tags.first[ui] && tags.parent[ui] != NONE {
                    acc.push((tree_eid[ui], e_uv));
                }
                // Rule 2: cross edges (u, v) with u < v connect the two
                // parent edges.
                if u < v && !tags.back(u, v) && !tags.back(v, u) {
                    debug_assert!(tags.parent[ui] != NONE && tags.parent[vi] != NONE);
                    acc.push((tree_eid[ui], tree_eid[vi]));
                }
            }
        }
        acc
    })
    .concat();

    // --- CC over the edge-vertices ----------------------------------------
    let uf = ConcurrentUnionFind::new(m_edges);
    par_for(skeleton.len(), |i| {
        let (e1, e2) = skeleton[i];
        uf.unite(e1, e2);
    });
    let edge_labels = uf.labels();
    let num_bcc = fastbcc_primitives::reduce::count(m_edges, |e| edge_labels[e] == e as u32);

    // Space: the skeleton edge list + edge-id maps + UF + tags + tables.
    let aux_peak_bytes = skeleton.len() * 8
        + eid_of_arc.len() * 4
        + edges.len() * 8
        + tree_eid.len() * 4
        + uf.bytes()
        + tags.bytes()
        + table_bytes
        + 4 * n;

    TvResult {
        edge_labels,
        edges,
        num_bcc,
        aux_peak_bytes,
        skeleton_edges: skeleton.len(),
        elapsed: t_start.elapsed(),
    }
}

/// Per-arc source vertex (flat expansion of the CSR offsets).
fn arc_sources(g: &Graph) -> Vec<V> {
    // SAFETY: the CSR arc ranges partition `0..m`, so the scatter below
    // writes every index before it is read.
    let mut src: Vec<V> = unsafe { uninit_vec(g.m()) };
    {
        let view = UnsafeSlice::new(&mut src);
        par_for(g.n(), |u| {
            for a in g.arc_range(u as V) {
                // SAFETY: arc ranges partition 0..m.
                unsafe { view.write(a, u as V) };
            }
        });
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_tarjan::hopcroft_tarjan;
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::generators::{grid2d, knn, rmat};

    fn check_against_ht(g: &Graph) {
        let tv = tarjan_vishkin(g, 42);
        let ht = hopcroft_tarjan(g, true);
        assert_eq!(tv.num_bcc, ht.num_bcc, "count mismatch");
        assert_eq!(tv.canonical_bccs(), ht.bccs.unwrap(), "set mismatch");
    }

    #[test]
    fn matches_hopcroft_tarjan_on_zoo() {
        for g in [
            path(20),
            cycle(12),
            star(9),
            complete(7),
            windmill(5),
            barbell(4, 3),
            petersen(),
            theta(2, 0, 4),
            clique_chain(4, 4),
            ladder(5),
            wheel(8),
            disjoint_union(&[&cycle(4), &path(5), &complete(4)]),
        ] {
            check_against_ht(&g);
        }
    }

    #[test]
    fn matches_on_generated_graphs() {
        check_against_ht(&grid2d(12, 17, true));
        check_against_ht(&rmat(9, 3000, 5));
        check_against_ht(&knn(600, 3, 8));
    }

    #[test]
    fn skeleton_is_order_m() {
        // TV's signature: skeleton edges scale with m, not n.
        let g = complete(40); // n = 40, m = 780
        let tv = tarjan_vishkin(&g, 1);
        assert!(
            tv.skeleton_edges > 2 * g.n(),
            "skeleton should be Θ(m): {} edges for n={}",
            tv.skeleton_edges,
            g.n()
        );
    }

    #[test]
    fn empty_and_trivial() {
        let tv = tarjan_vishkin(&Graph::empty(5), 0);
        assert_eq!(tv.num_bcc, 0);
        let tv = tarjan_vishkin(&path(2), 0);
        assert_eq!(tv.num_bcc, 1);
    }
}
