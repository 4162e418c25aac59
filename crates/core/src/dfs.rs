//! The small-budget solve: one iterative depth-first search.
//!
//! At one or two workers, FAST-BCC's LDD, Euler-tour list ranking and
//! tagging sparse tables cost more work than their span saves (the
//! engine runs this solve up to [`crate::engine::DFS_MAX_BUDGET`]). A DFS tree makes every non-tree
//! edge a back edge (`Back(u,v) || Back(v,u)`), so the skeleton's
//! connectivity collapses into the classic low-point test and the whole
//! [`BccResult`](crate::BccResult) falls out of one traversal plus one
//! pre-order sweep:
//!
//! * **Traversal.** An explicit stack of frames, each holding a vertex,
//!   its running low-point and an arc cursor, so no list is rescanned
//!   from arc 0 and the call stack never grows with the tree depth. It
//!   writes the [`Tags`] as [`crate::tags`] defines them over the DFS
//!   tree: `parent`, pre-order `first`, subtree end `last`, and
//!   `low`/`high`, the subtree min/max of `w1`/`w2`, folded into the
//!   parent's frame on retreat. In a DFS tree every neighbor of `T_v` is
//!   an ancestor or lies in `T_v`, so `high[v] = last[v]`.
//! * **Sweep.** In pre-order, a non-root `v` with parent `p` starts a
//!   block iff `low[v] ≥ first[p]` (the tree edge `p–v` is a fence), and
//!   then takes `labels[v] = v`, `head[v] = p`; otherwise it joins
//!   `labels[p]`. Every root keeps its singleton class.
//!
//! The output carries the same rep-id invariants as the pipeline's: each
//! label is a member vertex, a block's head is the tree parent of its
//! top vertex, and a root's class id is the root itself, which
//! [`crate::dynamic`] and [`crate::query::BccIndex::new`] rely on.
//!
//! Cost: `O(n + m)` work and arc reads on every backend (a resumed scan
//! re-decodes at most one compressed block), `O(n)` auxiliary space: the
//! stack and the pre-order, pooled in the engine's
//! [`crate::engine::Workspace`].

use crate::tags::Tags;
use fastbcc_graph::{GraphView, NONE, V};

/// `first` of a vertex the search has not reached yet.
const UNSEEN: u32 = u32::MAX;

/// One DFS stack frame: the vertex, the minimum `w1` seen so far over its
/// subtree, and the local index of the next arc to scan.
#[derive(Clone, Copy)]
struct Frame {
    v: V,
    low: u32,
    cursor: usize,
}

/// Pooled scratch of the DFS solve: the explicit stack and the pre-order.
#[derive(Default)]
pub struct DfsScratch {
    stack: Vec<Frame>,
    order: Vec<V>,
}

impl DfsScratch {
    /// Pre-reserve for `n` vertices (the stack can be `n` deep).
    pub fn reserve(&mut self, n: usize) {
        self.stack.reserve(n);
        self.order.reserve(n);
    }

    /// Heap bytes currently reserved (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Frame>() * self.stack.capacity() + 4 * self.order.capacity()
    }
}

/// Depth-first search over `g`, writing the DFS tree's tags into `tags`
/// and the pre-order into `scratch`. `force_root` (if any) is the first
/// root; the other trees are rooted at their smallest vertex. Returns the
/// number of trees, i.e. connected components.
pub fn dfs_tags_in<G: GraphView>(
    g: &G,
    force_root: Option<V>,
    tags: &mut Tags,
    scratch: &mut DfsScratch,
) -> usize {
    let n = g.n();
    let Tags {
        parent,
        first,
        last,
        low,
        high,
    } = tags;
    parent.clear();
    parent.resize(n, NONE);
    first.clear();
    first.resize(n, UNSEEN);
    for a in [&mut *last, &mut *low, &mut *high] {
        a.clear();
        a.resize(n, 0);
    }
    let DfsScratch { stack, order } = scratch;
    stack.clear();
    stack.reserve(n);
    order.clear();
    order.reserve(n);

    let mut time = 0u32;
    let mut trees = 0;
    for r in force_root.into_iter().chain(0..n as V) {
        if first[r as usize] != UNSEEN {
            continue;
        }
        trees += 1;
        first[r as usize] = time;
        order.push(r);
        stack.push(Frame {
            v: r,
            low: time,
            cursor: 0,
        });
        time += 1;
        while let Some(top) = stack.last_mut() {
            let v = top.v;
            let pv = parent[v as usize];
            let (mut lo, mut next, mut cursor) = (top.low, NONE, top.cursor);
            g.neighbors_from_while(v, top.cursor, |j, w| {
                let fw = first[w as usize];
                if fw == UNSEEN {
                    next = w;
                    cursor = j + 1;
                    return false;
                }
                // Arcs to the parent (parallel ones included) are tree
                // edges, as in `Tags::is_tree_edge`; arcs to finished
                // children and self-loops never lower the minimum.
                if fw < lo && w != pv {
                    lo = fw;
                }
                true
            });
            top.low = lo;
            if next != NONE {
                top.cursor = cursor;
                parent[next as usize] = v;
                first[next as usize] = time;
                order.push(next);
                stack.push(Frame {
                    v: next,
                    low: time,
                    cursor: 0,
                });
                time += 1;
            } else {
                stack.pop();
                last[v as usize] = time - 1;
                low[v as usize] = lo;
                high[v as usize] = time - 1;
                if let Some(up) = stack.last_mut() {
                    up.low = up.low.min(lo);
                }
            }
        }
    }
    trees
}

/// The pre-order sweep over the tags and pre-order of [`dfs_tags_in`]:
/// writes `labels`, `head` and `label_count`, and returns the BCC count.
pub fn dfs_labels_in(
    tags: &Tags,
    scratch: &DfsScratch,
    labels: &mut Vec<u32>,
    head: &mut Vec<V>,
    label_count: &mut Vec<u32>,
) -> usize {
    let n = tags.parent.len();
    labels.clear();
    labels.resize(n, 0);
    head.clear();
    head.resize(n, NONE);
    label_count.clear();
    label_count.resize(n, 0);
    let mut blocks = 0;
    for &v in &scratch.order {
        let p = tags.parent[v as usize];
        let l = if p == NONE {
            v
        } else if tags.low[v as usize] >= tags.first[p as usize] {
            head[v as usize] = p;
            blocks += 1;
            v
        } else {
            labels[p as usize]
        };
        labels[v as usize] = l;
        label_count[l as usize] += 1;
    }
    // Every block-starting label has a head; a root's class has none and
    // holds only the root (all its tree edges are fences).
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_graph::builder::from_edges;
    use fastbcc_graph::Graph;
    use proptest::prelude::*;

    /// Brute force over the DFS tree: `w1`/`w2` per vertex from its
    /// non-tree edges, then their subtree min/max by interval membership.
    fn brute_low_high(g: &Graph, t: &Tags) -> (Vec<u32>, Vec<u32>) {
        let n = g.n();
        let w = |v: usize, pick: fn(u32, u32) -> u32| {
            g.neighbors(v as V)
                .iter()
                .filter(|&&x| !t.is_tree_edge(v as V, x))
                .fold(t.first[v], |a, &x| pick(a, t.first[x as usize]))
        };
        let w1: Vec<u32> = (0..n).map(|v| w(v, u32::min)).collect();
        let w2: Vec<u32> = (0..n).map(|v| w(v, u32::max)).collect();
        let subtree = |a: usize, ws: &[u32], pick: fn(u32, u32) -> u32| {
            (0..n)
                .filter(|&x| t.back(a as V, x as V))
                .map(|x| ws[x])
                .reduce(pick)
                .unwrap()
        };
        (
            (0..n).map(|v| subtree(v, &w1, u32::min)).collect(),
            (0..n).map(|v| subtree(v, &w2, u32::max)).collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The DFS tags are the tags of `crate::tags` over the DFS tree:
        /// every non-tree edge is a back edge, and `low`/`high` equal the
        /// brute-force subtree min/max of `w1`/`w2`, for a forced root too.
        #[test]
        fn dfs_tags_match_brute_force(
            (n, edges, r) in (2usize..40).prop_flat_map(|n| (
                Just(n),
                proptest::collection::vec((0..n as V, 0..n as V), 0..90),
                0..n as V + 1,
            ))
        ) {
            let g = from_edges(n, &edges);
            // `r == n` leaves the roots to the default order.
            let root = (r < n as V).then_some(r);
            let mut t = Tags::default();
            dfs_tags_in(&g, root, &mut t, &mut DfsScratch::default());
            for (u, v) in g.iter_edges() {
                prop_assert!(t.is_tree_edge(u, v) || t.back(u, v) || t.back(v, u));
            }
            let (lo, hi) = brute_low_high(&g, &t);
            prop_assert_eq!(&t.low, &lo);
            prop_assert_eq!(&t.high, &hi);
            if let Some(r) = root {
                prop_assert_eq!((t.parent[r as usize], t.first[r as usize]), (NONE, 0));
            }
        }
    }
}
