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
//!   its running low-point and the backend's [`ArcCursor`] into its
//!   list, so no list is rescanned and the call stack never grows with
//!   the tree depth. It writes the [`Tags`] as [`crate::tags`] defines
//!   them over the DFS tree: `parent`, pre-order `first`, subtree end
//!   `last`, and `low`/`high`, the subtree min/max of `w1`/`w2`, folded
//!   into the parent's frame on retreat. In a DFS tree every neighbor of
//!   `T_v` is an ancestor or lies in `T_v`, so `high[v] = last[v]`.
//! * **Sweep.** In pre-order, a non-root `v` with parent `p` starts a
//!   block iff `low[v] ≥ first[p]` (the tree edge `p–v` is a fence), and
//!   then takes `labels[v] = v`, `head[v] = p`; otherwise it joins
//!   `labels[p]`. Every root keeps its singleton class.
//! * **Regions.** [`dfs_region_in`] runs the same traversal over the
//!   subgraph induced by a member set, in place on tags sized for the
//!   whole graph, and [`label_sweep`] labels the members from its
//!   pre-order. [`crate::dynamic`] repairs a block or re-roots a small
//!   component this way, with no copy of the region.
//!
//! The output carries the same rep-id invariants as the pipeline's: each
//! label is a member vertex, a block's head is the tree parent of its
//! top vertex, and a root's class id is the root itself, which
//! [`crate::dynamic`] and [`crate::query::BccIndex::new`] rely on.
//!
//! Cost: `O(n + m)` work on every backend, with each arc read or decoded
//! once: a resume continues from the frame's cursor, reading no offset
//! table. `O(n)` auxiliary space: the stack (32 bytes a frame on 64-bit
//! targets) and the pre-order, pooled in the engine's
//! [`crate::engine::Workspace`].

use crate::tags::Tags;
use fastbcc_graph::{ArcCursor, GraphView, NONE, V};

/// `first` of a vertex the search has not reached yet.
const UNSEEN: u32 = u32::MAX;

/// One DFS stack frame: the vertex, the minimum `w1` seen so far over its
/// subtree, and the backend's cursor at the next arc to scan, so a resume
/// neither finds the list again nor decodes an arc twice.
#[derive(Clone, Copy)]
struct Frame {
    v: V,
    low: u32,
    cursor: ArcCursor,
}

/// Pooled scratch of the DFS solve: the explicit stack and the pre-order.
#[derive(Default)]
pub struct DfsScratch {
    stack: Vec<Frame>,
    order: Vec<V>,
}

impl DfsScratch {
    /// Empty both buffers and reserve for `n` vertices (the stack can be
    /// `n` deep). Clearing first matters: `Vec::reserve` counts from the
    /// length, so a full pre-order left by the last solve would double it.
    pub fn reserve(&mut self, n: usize) {
        self.stack.clear();
        self.order.clear();
        self.stack.reserve(n);
        self.order.reserve(n);
    }

    /// The pre-order of the most recent search.
    pub fn order(&self) -> &[V] {
        &self.order
    }

    /// Heap bytes currently reserved (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Frame>() * self.stack.capacity() + 4 * self.order.capacity()
    }
}

/// One depth-first search from `r` over the vertices `inside` accepts,
/// with the pre-order clock starting at `time`: writes the tags of every
/// vertex it reaches, appends them to the pre-order, and returns the
/// clock after the last of them. `r` must be unseen (`first == UNSEEN`);
/// so must every vertex `inside` accepts that the search should reach.
fn search<G: GraphView, F: Fn(V) -> bool>(
    g: &G,
    r: V,
    inside: &F,
    tags: &mut Tags,
    scratch: &mut DfsScratch,
    mut time: u32,
) -> u32 {
    let Tags {
        parent,
        first,
        last,
        low,
        high,
    } = tags;
    let DfsScratch { stack, order } = scratch;
    first[r as usize] = time;
    order.push(r);
    stack.push(Frame {
        v: r,
        low: time,
        cursor: g.cursor(r),
    });
    time += 1;
    while let Some(top) = stack.last_mut() {
        let v = top.v;
        let pv = parent[v as usize];
        let (mut lo, mut next) = (top.low, NONE);
        g.next_while(v, &mut top.cursor, |w| {
            if !inside(w) {
                return true;
            }
            let fw = first[w as usize];
            if fw == UNSEEN {
                next = w;
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
            parent[next as usize] = v;
            first[next as usize] = time;
            order.push(next);
            stack.push(Frame {
                v: next,
                low: time,
                cursor: g.cursor(next),
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
    time
}

/// Depth-first search over `g`, writing the DFS tree's tags into `tags`
/// and the pre-order into `scratch`. Every tree is rooted at its smallest
/// vertex. Returns the number of trees, i.e. connected components.
pub fn dfs_tags_in<G: GraphView>(g: &G, tags: &mut Tags, scratch: &mut DfsScratch) -> usize {
    let n = g.n();
    tags.parent.clear();
    tags.parent.resize(n, NONE);
    tags.first.clear();
    tags.first.resize(n, UNSEEN);
    for a in [&mut tags.last, &mut tags.low, &mut tags.high] {
        a.clear();
        a.resize(n, 0);
    }
    scratch.reserve(n);
    let mut time = 0u32;
    let mut trees = 0;
    for r in 0..n as V {
        if tags.first[r as usize] == UNSEEN {
            trees += 1;
            time = search(g, r, &|_| true, tags, scratch, time);
        }
    }
    trees
}

/// [`dfs_tags_in`] restricted to the subgraph of `g` induced by `members`
/// (the vertices `inside` accepts, and no others), in place on tags sized
/// for all of `g`: non-members' tags are left as they are. The search
/// roots at `members[0]`, then at each member not yet reached, in order,
/// and writes the pre-order into `scratch`. Any `parent` a member held
/// before is ignored (a region root comes out with `NONE`), and `first`
/// counts from 0, so the tags compare only among members. Returns the
/// number of trees, i.e. the region's connected components. The
/// batch-dynamic layer re-solves a region this way without copying it out.
pub fn dfs_region_in<G: GraphView, F: Fn(V) -> bool>(
    g: &G,
    members: &[V],
    inside: F,
    tags: &mut Tags,
    scratch: &mut DfsScratch,
) -> usize {
    for &v in members {
        tags.first[v as usize] = UNSEEN;
        tags.parent[v as usize] = NONE;
    }
    scratch.stack.clear();
    scratch.order.clear();
    let mut time = 0u32;
    let mut trees = 0;
    for &r in members {
        if tags.first[r as usize] == UNSEEN {
            trees += 1;
            time = search(g, r, &inside, tags, scratch, time);
        }
    }
    trees
}

/// The pre-order sweep over `order` and the DFS tags: a non-root `v` with
/// parent `p` starts a block (`labels[v] = v`, `head[v] = p`) iff
/// `low[v] ≥ first[p]`, else joins `labels[p]`; a root starts its own
/// headless class. Adds each vertex to its class's `label_count` and
/// returns the number of blocks started, which over the whole pre-order of
/// [`dfs_tags_in`] is the BCC count (a root's class holds only the root,
/// since all its tree edges are fences). Writes only the entries of
/// `order`'s vertices, so it works on a region's pre-order too; `head`
/// is written only where a block starts, so the caller sets it to `NONE`
/// and `label_count` to 0 for those vertices first.
pub fn label_sweep(
    order: &[V],
    tags: &Tags,
    labels: &mut [u32],
    head: &mut [V],
    label_count: &mut [u32],
) -> usize {
    let mut blocks = 0;
    for &v in order {
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
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_graph::builder::from_edges;
    use fastbcc_graph::Graph;
    use proptest::prelude::*;

    /// Checks that `t` holds the tags of `crate::tags` over a DFS tree of
    /// `g`: every non-tree edge is a back edge, and `low`/`high` equal a
    /// brute force over the tree (`w1`/`w2` per vertex from its non-tree
    /// edges, then their subtree min/max by interval membership).
    fn check_dfs_tags(g: &Graph, t: &Tags) -> Result<(), TestCaseError> {
        let n = g.n();
        for (u, v) in g.iter_edges() {
            prop_assert!(t.is_tree_edge(u, v) || t.back(u, v) || t.back(v, u));
        }
        let w = |v: usize, pick: fn(u32, u32) -> u32| {
            g.neighbors(v as V)
                .iter()
                .filter(|&&x| !t.is_tree_edge(v as V, x))
                .fold(t.first[v], |a, &x| pick(a, t.first[x as usize]))
        };
        let subtree = |a: usize, pick: fn(u32, u32) -> u32| {
            (0..n)
                .filter(|&x| t.back(a as V, x as V))
                .map(|x| w(x, pick))
                .reduce(pick)
                .unwrap()
        };
        prop_assert_eq!(
            &t.low,
            &(0..n).map(|v| subtree(v, u32::min)).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            &t.high,
            &(0..n).map(|v| subtree(v, u32::max)).collect::<Vec<_>>()
        );
        Ok(())
    }

    /// Copies of the five tag arrays, for comparing whole tag sets.
    fn arrays(t: &Tags) -> [Vec<u32>; 5] {
        [&t.parent, &t.first, &t.last, &t.low, &t.high].map(|a| a.clone())
    }

    /// A random graph, a random vertex subset, and a coin.
    fn arb_graph() -> impl Strategy<Value = (usize, Vec<(V, V)>, Vec<bool>, bool)> {
        (2usize..40).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n as V, 0..n as V), 0..90),
                proptest::collection::vec(any::<bool>(), n..n + 1),
                any::<bool>(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The DFS tags are the tags of `crate::tags` over the DFS tree.
        #[test]
        fn dfs_tags_match_brute_force((n, edges, _, _) in arb_graph()) {
            let g = from_edges(n, &edges);
            let mut t = Tags::default();
            dfs_tags_in(&g, &mut t, &mut DfsScratch::default());
            check_dfs_tags(&g, &t)?;
        }

        /// The region search over a member subset, in place on a whole
        /// graph's tags, is a DFS of the induced subgraph rooted at
        /// `members[0]`: its tags, read in local ids, pass the brute-force
        /// check there, and equal `dfs_tags_in`'s outright when the members
        /// keep the vertex order (both searches then scan the same arcs in
        /// the same order; with `rotate` they start at an arbitrary member).
        /// The sweep labels the members as it labels the induced subgraph,
        /// and no non-member's tags or labels move.
        #[test]
        fn region_search_is_a_dfs_of_the_induced_subgraph(
            (n, edges, pick, rotate) in arb_graph()
        ) {
            let g = from_edges(n, &edges);
            let mut members: Vec<V> = (0..n as V).filter(|&v| pick[v as usize]).collect();
            if members.is_empty() {
                members.push(0);
            }
            let k = if rotate { edges.len() % members.len() } else { 0 };
            members.rotate_left(k);
            let mut local = vec![NONE; n];
            for (j, &v) in members.iter().enumerate() {
                local[v as usize] = j as V;
            }
            let to_local = |x: V| if x == NONE { NONE } else { local[x as usize] };
            let local_edges: Vec<(V, V)> = g
                .iter_edges()
                .map(|(u, v)| (to_local(u), to_local(v)))
                .filter(|&(u, v)| u != NONE && v != NONE)
                .collect();
            let lg = from_edges(members.len(), &local_edges);

            // Start from a whole-graph solve, so every entry holds a real
            // stale value.
            let mut t = Tags::default();
            let mut scratch = DfsScratch::default();
            dfs_tags_in(&g, &mut t, &mut scratch);
            let (mut labels, mut head, mut count) = (vec![0; n], vec![NONE; n], vec![0; n]);
            label_sweep(&scratch.order, &t, &mut labels, &mut head, &mut count);
            let before = (arrays(&t), labels.clone(), head.clone());
            let trees = dfs_region_in(&g, &members, |v| local[v as usize] != NONE, &mut t, &mut scratch);
            prop_assert_eq!(trees, dfs_tags_in(&lg, &mut Tags::default(), &mut DfsScratch::default()));
            for &v in &members {
                (head[v as usize], count[v as usize]) = (NONE, 0);
            }
            label_sweep(&scratch.order, &t, &mut labels, &mut head, &mut count);

            let now = arrays(&t);
            for v in (0..n).filter(|&v| local[v] == NONE) {
                prop_assert_eq!(now.each_ref().map(|a| a[v]), before.0.each_ref().map(|a| a[v]));
                prop_assert_eq!((labels[v], head[v]), (before.1[v], before.2[v]));
            }
            let r = members[0] as usize;
            prop_assert_eq!((t.parent[r], t.first[r]), (NONE, 0));

            let pick = |a: &[u32], f: &dyn Fn(u32) -> u32| -> Vec<u32> {
                members.iter().map(|&v| f(a[v as usize])).collect()
            };
            let [parent, first, last, low, high] = [
                pick(&t.parent, &to_local),
                pick(&t.first, &|x| x),
                pick(&t.last, &|x| x),
                pick(&t.low, &|x| x),
                pick(&t.high, &|x| x),
            ];
            let lt = Tags { parent, first, last, low, high };
            check_dfs_tags(&lg, &lt)?;
            let mut ls = DfsScratch::default();
            ls.order.extend(scratch.order.iter().map(|&v| local[v as usize]));
            let k = members.len();
            let (mut ll, mut lh, mut lc) = (vec![0; k], vec![NONE; k], vec![0; k]);
            label_sweep(&ls.order, &lt, &mut ll, &mut lh, &mut lc);
            prop_assert_eq!(pick(&labels, &to_local), ll);
            prop_assert_eq!(pick(&head, &to_local), lh);
            prop_assert_eq!(pick(&count, &|x| x), lc);

            if !rotate || members.len() == 1 {
                let mut fs = DfsScratch::default();
                let mut ft = Tags::default();
                dfs_tags_in(&lg, &mut ft, &mut fs);
                prop_assert_eq!(arrays(&lt), arrays(&ft));
                prop_assert_eq!(&ls.order, &fs.order);
            }
        }
    }
}
