//! Euler tour construction and forest rooting.
//!
//! Input: the spanning forest adjacency (a symmetric CSR over the tree
//! edges) and per-vertex tree labels (`labels[v]` = the representative
//! vertex of `v`'s tree, with `labels[r] == r` — exactly what the
//! connectivity algorithms return). Output: [`RootedForest`] with parents
//! and global Euler-tour positions.
//!
//! Each tree of size `s` contributes a circuit of `2(s-1)` directed arcs;
//! its *vertex sequence* `v_0 … v_{2s-2}` (root first, then the head of
//! each arc in circuit order) has length `2s-1`. Trees are laid out
//! back-to-back in one global position space so the tag arrays of all
//! trees share a single RMQ structure; interval queries never cross a tree
//! boundary because a subtree's positions are contained in its tree's
//! segment.

use fastbcc_graph::{Graph, NONE, V};
use fastbcc_primitives::atomics::{as_atomic_u32, write_max_u32, write_min_u32};
use fastbcc_primitives::pack::{pack_index_into, pack_map_into};
use fastbcc_primitives::par::par_for;
use fastbcc_primitives::scan::prefix_sums;
use fastbcc_primitives::slice::{reuse_uninit, UnsafeSlice};

use crate::listrank::{rank_circular_lists_in, ListRankScratch};

/// A rooted spanning forest with Euler-tour tags.
#[derive(Default)]
pub struct RootedForest {
    /// Parent of each vertex; `NONE` for tree roots (and isolated vertices).
    pub parent: Vec<V>,
    /// Global tour position of the first appearance of each vertex.
    pub first: Vec<u32>,
    /// Global tour position of the last appearance of each vertex.
    pub last: Vec<u32>,
    /// Vertex at every global tour position (length `2n - #trees`).
    pub tour_vertex: Vec<V>,
    /// One root per tree, in layout order.
    pub roots: Vec<V>,
}

impl RootedForest {
    /// Total length of the concatenated vertex sequences.
    pub fn tour_len(&self) -> usize {
        self.tour_vertex.len()
    }

    /// True iff `u` is an ancestor of `v` (including `u == v`) — the
    /// interval containment test of Alg. 1 (`Back`).
    #[inline]
    pub fn is_ancestor(&self, u: V, v: V) -> bool {
        self.first[u as usize] <= self.first[v as usize]
            && self.last[u as usize] >= self.first[v as usize]
    }

    /// Bytes of auxiliary memory held.
    pub fn bytes(&self) -> usize {
        4 * (self.parent.len()
            + self.first.len()
            + self.last.len()
            + self.tour_vertex.len()
            + self.roots.len())
    }

    /// Heap bytes currently reserved (capacity, not length) — the engine's
    /// fresh-allocation accounting reads this.
    pub fn heap_bytes(&self) -> usize {
        4 * (self.parent.capacity()
            + self.first.capacity()
            + self.last.capacity()
            + self.tour_vertex.capacity()
            + self.roots.capacity())
    }
}

/// Reusable buffers for [`root_forest_in`]: the per-arc successor/rank
/// arrays of the Euler circuits plus the per-tree layout tables.
#[derive(Default)]
pub struct EttScratch {
    pos_of_root: Vec<u32>,
    sizes: Vec<u32>,
    offsets: Vec<usize>,
    src: Vec<V>,
    succ: Vec<u32>,
    start_arcs: Vec<u32>,
    rank: Vec<u32>,
    listrank: ListRankScratch,
}

impl EttScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserve for an `n`-vertex forest (arc arrays hold up to
    /// `2(n-1)` entries; the list-ranking sample tables are pinned to
    /// their high-probability bound so warm solves never grow them).
    pub fn reserve(&mut self, n: usize) {
        self.pos_of_root.reserve(n);
        self.sizes.reserve(n);
        self.offsets.reserve(n);
        self.src.reserve(2 * n);
        self.succ.reserve(2 * n);
        self.start_arcs.reserve(n);
        self.rank.reserve(2 * n);
        self.listrank.reserve(2 * n, 64);
    }

    /// Heap bytes currently reserved (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        4 * (self.pos_of_root.capacity()
            + self.sizes.capacity()
            + self.src.capacity()
            + self.succ.capacity()
            + self.start_arcs.capacity()
            + self.rank.capacity())
            + 8 * self.offsets.capacity()
            + self.listrank.heap_bytes()
    }
}

/// Root every tree of the forest and compute Euler-tour tags.
///
/// * `tree` — symmetric CSR adjacency of the forest edges;
/// * `labels` — tree label per vertex (`labels[r] == r` for the root used).
pub fn root_forest(tree: &Graph, labels: &[u32], seed: u64) -> RootedForest {
    let mut out = RootedForest::default();
    let mut scratch = EttScratch::new();
    root_forest_in(tree, labels, seed, &mut out, &mut scratch);
    out
}

/// [`root_forest`] writing into a caller-owned [`RootedForest`], with every
/// intermediate (arc sources, circuit successors, list-ranking arrays) in
/// `scratch` — the engine's repeated-solve path.
pub fn root_forest_in(
    tree: &Graph,
    labels: &[u32],
    seed: u64,
    out: &mut RootedForest,
    scratch: &mut EttScratch,
) {
    let n = tree.n();
    assert_eq!(labels.len(), n);
    let m_arcs = tree.m();

    // --- roots, tree sizes, per-tree layout offsets ----------------------
    pack_index_into(n, |v| labels[v] == v as u32, &mut out.roots);
    let roots = &out.roots;
    // size[t] = vertices in tree t (indexed by root order); count via a
    // per-root atomic histogram.
    let pos_of_root = &mut scratch.pos_of_root;
    pos_of_root.clear();
    pos_of_root.resize(n, u32::MAX);
    {
        let view = UnsafeSlice::new(pos_of_root.as_mut_slice());
        // SAFETY: roots are distinct vertices, so the writes are disjoint.
        par_for(roots.len(), |t| unsafe {
            view.write(roots[t] as usize, t as u32)
        });
    }
    let pos_of_root = &*pos_of_root;
    let sizes = &mut scratch.sizes;
    sizes.clear();
    sizes.resize(roots.len(), 0);
    {
        let counts = as_atomic_u32(sizes);
        par_for(n, |v| {
            let t = pos_of_root[labels[v] as usize];
            counts[t as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
    }
    // Vertex-sequence length per tree is 2s-1; scan for global offsets.
    let offsets = &mut scratch.offsets;
    offsets.clear();
    offsets.extend(sizes.iter().map(|&s| 2 * s as usize - 1));
    let total_tour = prefix_sums(offsets);
    let offsets = &*offsets;
    debug_assert_eq!(total_tour, 2 * n - roots.len());

    // --- arc sources and circuit successors ------------------------------
    let src = &mut scratch.src;
    // SAFETY: arc ranges partition 0..m, so every slot is written.
    unsafe { reuse_uninit(src, m_arcs) };
    {
        let view = UnsafeSlice::new(src.as_mut_slice());
        par_for(n, |u| {
            for a in tree.arc_range(u as V) {
                // SAFETY: arc ranges partition 0..m.
                unsafe { view.write(a, u as V) };
            }
        });
    }
    let src = &*src;
    // succ[a] for arc a = (u -> v): the arc after (v -> u) in v's rotation.
    let arcs = tree.arcs();
    let succ = &mut scratch.succ;
    // SAFETY: one write per arc index below.
    unsafe { reuse_uninit(succ, m_arcs) };
    {
        let view = UnsafeSlice::new(succ.as_mut_slice());
        par_for(m_arcs, |a| {
            let u = src[a];
            let v = arcs[a];
            let base = tree.arc_range(v).start;
            let deg = tree.degree(v);
            // Neighbor lists are sorted and duplicate-free: binary search.
            let j = tree
                .neighbors(v)
                .binary_search(&u)
                .expect("twin arc missing");
            let next = base + (j + 1) % deg;
            // SAFETY: one write per arc index.
            unsafe { view.write(a, next as u32) };
        });
    }
    let succ = &*succ;

    // --- list-rank the circuits ------------------------------------------
    // Start arc of tree t: the first outgoing arc of its root (trees of
    // size 1 have no arcs and are handled by layout alone).
    pack_map_into(
        roots.len(),
        |t| tree.degree(roots[t]) > 0,
        |t| tree.arc_range(roots[t]).start as u32,
        &mut scratch.start_arcs,
    );
    rank_circular_lists_in(
        succ,
        &scratch.start_arcs,
        seed,
        &mut scratch.rank,
        &mut scratch.listrank,
    );
    let rank = &scratch.rank;

    // --- scatter the vertex sequence and tags ----------------------------
    // SAFETY: position (offset + rank + 1) is unique per arc and the root
    // slots cover the remainder, so every slot is written.
    unsafe { reuse_uninit(&mut out.tour_vertex, total_tour) };
    {
        let view = UnsafeSlice::new(out.tour_vertex.as_mut_slice());
        par_for(roots.len(), |t| unsafe { view.write(offsets[t], roots[t]) });
        par_for(m_arcs, |a| {
            let t = pos_of_root[labels[src[a] as usize] as usize] as usize;
            // SAFETY: position (offset + rank + 1) is unique per arc.
            unsafe { view.write(offsets[t] + rank[a] as usize + 1, arcs[a]) };
        });
    }

    out.first.clear();
    out.first.resize(n, u32::MAX);
    out.last.clear();
    out.last.resize(n, 0);
    {
        let f = as_atomic_u32(&mut out.first);
        let l = as_atomic_u32(&mut out.last);
        let tour_ref = &out.tour_vertex;
        par_for(total_tour, |p| {
            let v = tour_ref[p] as usize;
            write_min_u32(&f[v], p as u32);
            write_max_u32(&l[v], p as u32);
        });
    }

    // --- parents ----------------------------------------------------------
    out.parent.clear();
    out.parent.resize(n, NONE);
    {
        let view = UnsafeSlice::new(out.parent.as_mut_slice());
        let first_ref = &out.first;
        par_for(m_arcs, |a| {
            let u = src[a];
            let v = arcs[a];
            // Exactly one arc into each non-root vertex comes from its
            // parent (the tree edge whose source appears earlier).
            if first_ref[u as usize] < first_ref[v as usize] {
                // SAFETY: unique writer per v (its unique tree parent).
                unsafe { view.write(v as usize, u) };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_graph::builder::from_edges;
    use fastbcc_graph::stats::cc_labels_seq;

    fn rooted(n: usize, edges: &[(V, V)]) -> (Graph, RootedForest) {
        let t = from_edges(n, edges);
        let labels = cc_labels_seq(&t);
        let rf = root_forest(&t, &labels, 7);
        (t, rf)
    }

    fn check_invariants(t: &Graph, rf: &RootedForest) {
        let n = t.n();
        assert_eq!(rf.tour_len(), 2 * n - rf.roots.len());
        for v in 0..n as V {
            let f = rf.first[v as usize];
            let l = rf.last[v as usize];
            assert!(f <= l, "first > last at {v}");
            assert_eq!(rf.tour_vertex[f as usize], v);
            assert_eq!(rf.tour_vertex[l as usize], v);
            match rf.parent[v as usize] {
                NONE => assert!(rf.roots.contains(&v)),
                p => {
                    assert!(t.has_edge(p, v), "parent edge {p}-{v} not in tree");
                    // Parent's interval strictly contains the child's.
                    assert!(rf.first[p as usize] < f);
                    assert!(rf.last[p as usize] >= l);
                    assert!(rf.is_ancestor(p, v));
                    assert!(!rf.is_ancestor(v, p));
                }
            }
        }
        // Consecutive tour vertices within one tree are adjacent in T.
        // (Tree boundaries are where a root's segment starts.)
        let mut boundary = vec![false; rf.tour_len()];
        let mut off = 0usize;
        for &r in &rf.roots {
            boundary[off] = true;
            // A root's segment is exactly [first[r], last[r]].
            assert_eq!(rf.first[r as usize] as usize, off);
            off = rf.last[r as usize] as usize + 1;
        }
        assert_eq!(off, rf.tour_len());
        for p in 1..rf.tour_len() {
            if !boundary[p] {
                let a = rf.tour_vertex[p - 1];
                let b = rf.tour_vertex[p];
                assert!(t.has_edge(a, b), "tour step {a}->{b} not a tree edge");
            }
        }
    }

    #[test]
    fn path_rooted_at_label_end() {
        let (t, rf) = rooted(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        check_invariants(&t, &rf);
        assert_eq!(rf.roots, vec![0]);
        // Parent chain follows the path from 0.
        assert_eq!(rf.parent[0], NONE);
        for v in 1..5u32 {
            assert_eq!(rf.parent[v as usize], v - 1);
        }
        // first: 0,1,2,3,4 ; last: 8,7,6,5,4 for a path tour.
        assert_eq!(rf.first, vec![0, 1, 2, 3, 4]);
        assert_eq!(rf.last, vec![8, 7, 6, 5, 4]);
    }

    #[test]
    fn star_children_intervals_disjoint() {
        let (t, rf) = rooted(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        check_invariants(&t, &rf);
        // Each leaf appears exactly once: first == last, intervals disjoint.
        for v in 1..5usize {
            assert_eq!(rf.first[v], rf.last[v]);
        }
        for a in 1..5u32 {
            for b in (a + 1)..5u32 {
                assert!(!rf.is_ancestor(a, b));
                assert!(!rf.is_ancestor(b, a));
                assert!(rf.is_ancestor(0, a));
            }
        }
    }

    #[test]
    fn forest_with_isolated_vertices() {
        // Two trees (sizes 3, 2) and two isolated vertices.
        let (t, rf) = rooted(7, &[(0, 1), (1, 2), (4, 5)]);
        check_invariants(&t, &rf);
        assert_eq!(rf.roots.len(), 4); // trees rooted at 0 and 4, isolated 3, 6
        assert_eq!(rf.tour_len(), 2 * 7 - 4);
        // Isolated vertices occupy a single slot.
        assert_eq!(rf.first[3], rf.last[3]);
        assert_eq!(rf.first[6], rf.last[6]);
        assert_eq!(rf.parent[3], NONE);
    }

    #[test]
    fn binary_tree_laminar_intervals() {
        let edges: Vec<(V, V)> = (1..31u32).map(|i| ((i - 1) / 2, i)).collect();
        let (t, rf) = rooted(31, &edges);
        check_invariants(&t, &rf);
        // Heap structure: parent in the rooted forest must match heap parent
        // (tree rooted at 0 = label of the single component).
        for i in 1..31u32 {
            assert_eq!(rf.parent[i as usize], (i - 1) / 2);
        }
        // Sibling subtree intervals are disjoint.
        for i in 1..15u32 {
            let (a, b) = (2 * i + 1, 2 * i + 2);
            if b < 31 {
                let disjoint = rf.last[a as usize] < rf.first[b as usize]
                    || rf.last[b as usize] < rf.first[a as usize];
                assert!(disjoint, "siblings {a},{b} overlap");
            }
        }
    }

    #[test]
    fn deterministic() {
        let edges: Vec<(V, V)> = (1..100u32).map(|i| (i / 3, i)).collect();
        let t = from_edges(100, &edges);
        let labels = cc_labels_seq(&t);
        let a = root_forest(&t, &labels, 5);
        let b = root_forest(&t, &labels, 5);
        assert_eq!(a.first, b.first);
        assert_eq!(a.last, b.last);
        assert_eq!(a.parent, b.parent);
    }
}
