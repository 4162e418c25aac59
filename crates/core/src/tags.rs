//! The *Tagging* step (paper §4.1 step 3, §5 "Computing Tags").
//!
//! From the rooted forest, compute per vertex:
//!
//! * `first[v]`, `last[v]` — Euler-tour appearance interval (from ETT);
//! * `w1[v] = min({first[v]} ∪ {first[u] : (v,u) non-tree edge})` and
//!   `w2[v]` its max counterpart — one parallel pass over all edges with
//!   CAS priority writes;
//! * `low[v] = min w1 over T_v`, `high[v] = max w2 over T_v` — since a
//!   subtree is an interval `[first[v], last[v]]` of the Euler order, these
//!   are 1-D range-min/max queries over the tour-ordered `w1`/`w2` arrays,
//!   answered by parallel sparse tables.
//!
//! `O(n + m)` work and `O(log n)` span for the edge pass, `O(n log n)`
//! work for the sparse tables (the paper's choice as well; this is the
//! only super-linear-in-`n` structure and it is on tour positions, i.e.
//! `O(n)`-sized input, so auxiliary space stays `O(n log n)` *bits*-level
//! comparable to the paper's implementation).

use fastbcc_ett::RootedForest;
use fastbcc_graph::{GraphView, V};
use fastbcc_primitives::atomics::{as_atomic_u32, write_max_u32, write_min_u32};
use fastbcc_primitives::par::par_for;
use fastbcc_primitives::rmq::{BlockRmq, RmqKind};
use fastbcc_primitives::slice::{reuse_uninit, UnsafeSlice};

/// Per-vertex tags driving the edge-classification predicates.
#[derive(Default)]
pub struct Tags {
    /// Parent in the rooted spanning forest (`NONE` for roots).
    pub parent: Vec<V>,
    /// First appearance on the Euler tour.
    pub first: Vec<u32>,
    /// Last appearance on the Euler tour.
    pub last: Vec<u32>,
    /// Minimum `w1` over the subtree.
    pub low: Vec<u32>,
    /// Maximum `w2` over the subtree.
    pub high: Vec<u32>,
}

impl Tags {
    /// True iff `u–v` is an edge of the spanning forest.
    #[inline]
    pub fn is_tree_edge(&self, u: V, v: V) -> bool {
        self.parent[u as usize] == v || self.parent[v as usize] == u
    }

    /// Alg. 1 `Back(u, v)`: `u` is an ancestor of `v` (so a non-tree edge
    /// `u–v` is a back edge iff `Back(u,v) || Back(v,u)`).
    #[inline]
    pub fn back(&self, u: V, v: V) -> bool {
        self.first[u as usize] <= self.first[v as usize]
            && self.last[u as usize] >= self.first[v as usize]
    }

    /// Alg. 1 `Fence(u, v)`: assuming `u = p(v)`, no edge from `T_v`
    /// escapes `T_u`.
    #[inline]
    pub fn fence(&self, u: V, v: V) -> bool {
        self.first[u as usize] <= self.low[v as usize]
            && self.last[u as usize] >= self.high[v as usize]
    }

    /// Alg. 1 `InSkeleton(u, v)`: the edge is a plain tree edge or a cross
    /// edge — i.e. it belongs to the implicit skeleton `G'`.
    #[inline]
    pub fn in_skeleton(&self, u: V, v: V) -> bool {
        if self.is_tree_edge(u, v) {
            !self.fence(u, v) && !self.fence(v, u)
        } else {
            !self.back(u, v) && !self.back(v, u)
        }
    }

    /// Bytes of auxiliary memory held by the tag arrays.
    pub fn bytes(&self) -> usize {
        4 * (self.parent.len()
            + self.first.len()
            + self.last.len()
            + self.low.len()
            + self.high.len())
    }

    /// Heap bytes currently reserved (capacity, not length) — the engine's
    /// fresh-allocation accounting reads this.
    pub fn heap_bytes(&self) -> usize {
        4 * (self.parent.capacity()
            + self.first.capacity()
            + self.last.capacity()
            + self.low.capacity()
            + self.high.capacity())
    }
}

/// Reusable buffers for [`compute_tags_in`]: the vertex- and tour-ordered
/// `w1`/`w2` arrays. The sparse tables themselves stay transient — they
/// are freed before Last-CC in the one-shot flow, and rebuilding them is
/// the documented `O(n log n)`-work step of the paper's tagging phase.
#[derive(Default)]
pub struct TagScratch {
    w1: Vec<u32>,
    w2: Vec<u32>,
    w1_tour: Vec<u32>,
    w2_tour: Vec<u32>,
}

impl TagScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserve for `n` vertices (tour-ordered arrays hold up to `2n`).
    pub fn reserve(&mut self, n: usize) {
        self.w1.reserve(n);
        self.w2.reserve(n);
        self.w1_tour.reserve(2 * n);
        self.w2_tour.reserve(2 * n);
    }

    /// Heap bytes currently reserved (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        4 * (self.w1.capacity()
            + self.w2.capacity()
            + self.w1_tour.capacity()
            + self.w2_tour.capacity())
    }
}

/// Compute all tags. Returns the tags and the sparse-table bytes used
/// (transient — freed before Last-CC), for space accounting.
pub fn compute_tags<G: GraphView>(g: &G, rf: &RootedForest) -> (Tags, usize) {
    let mut tags = Tags::default();
    let mut scratch = TagScratch::new();
    let table_bytes = compute_tags_in(g, rf, &mut tags, &mut scratch);
    (tags, table_bytes)
}

/// [`compute_tags`] writing into a caller-owned [`Tags`] (the five tag
/// arrays of the engine's workspace) with intermediates in `scratch`.
/// Returns the transient sparse-table bytes for space accounting.
pub fn compute_tags_in<G: GraphView>(
    g: &G,
    rf: &RootedForest,
    out: &mut Tags,
    scratch: &mut TagScratch,
) -> usize {
    let n = g.n();
    out.first.clear();
    out.first.extend_from_slice(&rf.first);
    out.last.clear();
    out.last.extend_from_slice(&rf.last);
    out.parent.clear();
    out.parent.extend_from_slice(&rf.parent);
    let first = &out.first;
    let last = &out.last;
    let parent = &out.parent;

    // w1/w2 over vertices, seeded with first[v].
    let w1 = &mut scratch.w1;
    w1.clear();
    w1.extend_from_slice(first);
    let w2 = &mut scratch.w2;
    w2.clear();
    w2.extend_from_slice(first);
    {
        let a1 = as_atomic_u32(w1);
        let a2 = as_atomic_u32(w2);
        par_for(n, |ui| {
            let u = ui as V;
            g.for_neighbors(u, |v| {
                // Skip tree edges: their information is already captured by
                // the subtree intervals themselves.
                if parent[u as usize] != v && parent[v as usize] != u {
                    write_min_u32(&a1[ui], first[v as usize]);
                    write_max_u32(&a2[ui], first[v as usize]);
                }
            });
        });
    }
    let w1 = &*w1;
    let w2 = &*w2;

    // Spread to Euler order and build the sparse tables.
    let tour = &rf.tour_vertex;
    let tl = tour.len();
    let w1_tour = &mut scratch.w1_tour;
    let w2_tour = &mut scratch.w2_tour;
    // SAFETY: every slot in 0..tl is written exactly once below.
    unsafe {
        reuse_uninit(w1_tour, tl);
        reuse_uninit(w2_tour, tl);
    }
    {
        let v1 = UnsafeSlice::new(w1_tour.as_mut_slice());
        let v2 = UnsafeSlice::new(w2_tour.as_mut_slice());
        // SAFETY: one write per distinct tour position `p` — disjoint.
        par_for(tl, |p| unsafe {
            let v = tour[p] as usize;
            v1.write(p, w1[v]);
            v2.write(p, w2[v]);
        });
    }
    let st_min = BlockRmq::build(w1_tour, RmqKind::Min);
    let st_max = BlockRmq::build(w2_tour, RmqKind::Max);
    let table_bytes = st_min.bytes() + st_max.bytes() + 8 * tl;

    // low/high by interval queries.
    // SAFETY: every slot in 0..n is written exactly once below.
    unsafe {
        reuse_uninit(&mut out.low, n);
        reuse_uninit(&mut out.high, n);
    }
    {
        let lo = UnsafeSlice::new(out.low.as_mut_slice());
        let hi = UnsafeSlice::new(out.high.as_mut_slice());
        // SAFETY: one write per distinct vertex `v` — disjoint.
        par_for(n, |v| unsafe {
            lo.write(v, st_min.query(first[v] as usize, last[v] as usize));
            hi.write(v, st_max.query(first[v] as usize, last[v] as usize));
        });
    }

    table_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_connectivity::cc::cc_seq;
    use fastbcc_connectivity::spanning_forest::forest_adjacency;
    use fastbcc_ett::root_forest;
    use fastbcc_graph::builder::from_edges;
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::{Graph, NONE};

    fn tags_of(g: &Graph) -> Tags {
        let cc = cc_seq(g, true);
        let t = forest_adjacency(g.n(), cc.forest.as_ref().unwrap());
        let rf = root_forest(&t, &cc.labels, 3);
        compute_tags(g, &rf).0
    }

    /// Oracle: recompute low/high by brute force over the rooted forest.
    fn brute_low_high(g: &Graph, tags: &Tags) -> (Vec<u32>, Vec<u32>) {
        let n = g.n();
        // subtree membership via interval test with the same first/last.
        let in_subtree = |anc: usize, v: usize| {
            tags.first[anc] <= tags.first[v] && tags.last[anc] >= tags.last[v]
        };
        let mut low = vec![0u32; n];
        let mut high = vec![0u32; n];
        for v in 0..n {
            let mut lo = u32::MAX;
            let mut hi = 0u32;
            for u in 0..n {
                if in_subtree(v, u) {
                    lo = lo.min(tags.first[u]);
                    hi = hi.max(tags.first[u]);
                    for &x in g.neighbors(u as V) {
                        if !tags.is_tree_edge(u as V, x) {
                            lo = lo.min(tags.first[x as usize]);
                            hi = hi.max(tags.first[x as usize]);
                        }
                    }
                }
            }
            low[v] = lo;
            high[v] = hi;
        }
        (low, high)
    }

    #[test]
    fn low_high_match_brute_force_on_zoo() {
        for g in [
            cycle(9),
            windmill(4),
            petersen(),
            theta(1, 2, 3),
            barbell(4, 2),
            complete(6),
            from_edges(
                7,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 0),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 3),
                    (5, 6),
                ],
            ),
        ] {
            let tags = tags_of(&g);
            let (lo, hi) = brute_low_high(&g, &tags);
            assert_eq!(tags.low, lo, "low mismatch");
            assert_eq!(tags.high, hi, "high mismatch");
        }
    }

    #[test]
    fn tree_edge_detection() {
        let g = cycle(5);
        let tags = tags_of(&g);
        let tree_count = g
            .iter_edges()
            .filter(|&(u, v)| tags.is_tree_edge(u, v))
            .count();
        assert_eq!(tree_count, 4); // spanning tree of a 5-cycle
    }

    #[test]
    fn non_tree_edge_classification_on_cycle() {
        // A cycle's spanning tree is a path; the one non-tree edge joins the
        // path's two endpoints. It is a back edge iff the tree root is one
        // of those endpoints (ancestor relation), otherwise a cross edge.
        let g = cycle(6);
        let tags = tags_of(&g);
        let non_tree: Vec<_> = g
            .iter_edges()
            .filter(|&(u, v)| !tags.is_tree_edge(u, v))
            .collect();
        assert_eq!(non_tree.len(), 1);
        let (u, v) = non_tree[0];
        let root_is_endpoint = tags.parent[u as usize] == NONE || tags.parent[v as usize] == NONE;
        let is_back = tags.back(u, v) || tags.back(v, u);
        assert_eq!(is_back, root_is_endpoint, "edge {u}-{v}");
        assert_eq!(tags.in_skeleton(u, v), !is_back);
    }

    #[test]
    fn fence_edges_on_path_graph() {
        // Every edge of a path is a fence edge (each is a bridge).
        let g = path(10);
        let tags = tags_of(&g);
        for (u, v) in g.iter_edges() {
            assert!(tags.is_tree_edge(u, v));
            assert!(!tags.in_skeleton(u, v), "bridge {u}-{v} must be fenced");
        }
    }

    #[test]
    fn biconnected_graph_keeps_non_root_tree_edges_in_skeleton() {
        // On K5 every tree edge *not incident to the root* is plain; the
        // root's own tree edges are always fences (Lemma 4.9 case 1).
        let g = complete(5);
        let tags = tags_of(&g);
        for (u, v) in g.iter_edges() {
            if tags.is_tree_edge(u, v) {
                let root_incident =
                    tags.parent[u as usize] == NONE || tags.parent[v as usize] == NONE;
                assert_eq!(tags.in_skeleton(u, v), !root_incident, "tree edge {u}-{v}");
            }
        }
    }

    #[test]
    fn windmill_fences_exactly_center_edges() {
        // Each triangle center-edge pair: the tree edges from the center
        // into each triangle are fences iff they separate BCCs. For the
        // windmill rooted anywhere, each triangle is one BCC; the edges
        // into a triangle from the center are that BCC's boundary.
        let g = windmill(5);
        let tags = tags_of(&g);
        // The third edge of each triangle (leaf-leaf) must never be fenced.
        for (u, v) in g.iter_edges() {
            if u != 0 && v != 0 {
                assert!(
                    !tags.is_tree_edge(u, v) || tags.in_skeleton(u, v),
                    "leaf-leaf tree edge {u}-{v} wrongly fenced"
                );
            }
        }
    }
}
