//! Online BCC query serving: [`BccIndex`].
//!
//! The solver produces the paper's `O(n)` BCC representation; the paper's
//! introduction motivates BCC as the substrate for *downstream queries* —
//! network reliability, centrality, planarity. This module is that layer:
//! a read-only index built **once** from a [`BccResult`], answering
//!
//! | query | answer | cost |
//! |---|---|---|
//! | [`same_bcc(u, v)`](BccIndex::same_bcc) | share a biconnected component? | `O(1)` |
//! | [`is_articulation(v)`](BccIndex::is_articulation) | cut vertex? | `O(1)` |
//! | [`is_bridge(u, v)`](BccIndex::is_bridge) | is `{u, v}` a bridge edge? | `O(1)` |
//! | [`cut_vertices_on_path(u, v)`](BccIndex::cut_vertices_on_path) | # articulation points separating `u` from `v` | `O(B)` boundary scans + `O(1)` table |
//!
//! The machinery is the classic Euler-tour LCA, instantiated on the
//! **block–cut forest** instead of the input graph. The result is already
//! rooted: a BCC is a label class plus its head, the tree parent of the
//! class's top vertex, so every forest node's parent is one
//! `labels`/`head` lookup, and [`block_cut_tree`] derives the whole forest
//! as parent pointers in `O(n)` work. [`BccIndex::build`] reads that
//! forest; [`BccIndex::new`] derives it once and builds. One iterative
//! walk over the parent pointers' children lists writes the Euler tour,
//! each node's `first` position, its tree (`comp`), and per-node prefix
//! counts of cut nodes (`cuts_to_root`). A position-returning block RMQ
//! ([`fastbcc_primitives::rmq::ArgRmq`]) over the walk's depths answers
//! `argmin(depth)` over tour intervals — the LCA of two forest nodes. The
//! prefix counts then make "articulation points on the tree path" a
//! four-term sum, which is exactly the set of vertices whose removal
//! separates the two query endpoints. The tree path between two nodes does
//! not depend on the root, so neither do the answers.
//!
//! Space follows the repo's discipline: everything is flat `u32` arrays —
//! four `O(n)` vertex tables plus `O(t)` tour tables and the linear-space
//! blocked RMQ (`t ≤ 4n`), all reported by [`BccIndex::bytes`] and bounded
//! by [`crate::space::query_index_budget_bytes`]. Batches run on the
//! parallel runtime through a pooled [`QueryScratch`], so a warm
//! [`answer_batch`](BccIndex::answer_batch) reports
//! [`fresh_alloc_bytes`](QueryScratch::fresh_alloc_bytes)` == 0` at any
//! `FASTBCC_THREADS` budget — the same zero-allocation gate the engine's
//! solve path honors.

use crate::algo::BccResult;
use crate::block_cut_tree::{block_cut_tree, BlockCutTree};
use fastbcc_graph::{NONE, V};
use fastbcc_primitives::par::{par_for, par_for_grain};
use fastbcc_primitives::rmq::{ArgRmq, RmqKind};
use fastbcc_primitives::slice::{uninit_vec, UnsafeSlice};

/// One BCC query. Vertex ids must be `< n` (the solved graph's vertex
/// count); out-of-range ids panic, exactly like the rest of the API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Do `u` and `v` share a biconnected component?
    SameBcc(V, V),
    /// Is `v` an articulation point?
    IsArticulation(V),
    /// Do `u` and `v` form a bridge edge (a 2-vertex BCC)?
    IsBridge(V, V),
    /// How many articulation points separate `u` from `v`?
    CutVerticesOnPath(V, V),
}

/// Answer to a [`Query`]: the boolean kinds return `Bool`, the path count
/// returns `Count` (`None` when no `u`–`v` path exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    Bool(bool),
    Count(Option<u32>),
}

/// A deterministic mixed workload: `count` queries over vertex ids
/// `0..num_vertices`, ~25% of each kind. The single definition of the
/// batch shape served by the `queries` benchmark, the `query_service`
/// example, and the determinism tests — change the mix here and every
/// consumer follows.
pub fn random_mixed_batch(num_vertices: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = fastbcc_primitives::rng::Rng::new(seed);
    (0..count)
        .map(|_| {
            let u = rng.index(num_vertices) as V;
            let v = rng.index(num_vertices) as V;
            match rng.index(4) {
                0 => Query::SameBcc(u, v),
                1 => Query::IsArticulation(u),
                2 => Query::IsBridge(u, v),
                _ => Query::CutVerticesOnPath(u, v),
            }
        })
        .collect()
}

/// Pooled output buffer for [`BccIndex::answer_batch`]. Construct once and
/// reuse: the answer slots stay allocated across batches, so every warm
/// batch reports [`fresh_alloc_bytes`](Self::fresh_alloc_bytes)` == 0`.
#[derive(Default)]
pub struct QueryScratch {
    answers: Vec<QueryAnswer>,
    fresh: usize,
}

impl QueryScratch {
    /// An empty scratch (sized by the first batch).
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for batches of up to `q` queries, so even the
    /// first batch allocates nothing.
    pub fn with_capacity(q: usize) -> Self {
        Self {
            answers: Vec::with_capacity(q),
            fresh: 0,
        }
    }

    /// Heap bytes currently reserved by the answer buffer.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<QueryAnswer>() * self.answers.capacity()
    }

    /// Buffer capacity newly allocated by the most recent batch — 0 for
    /// every batch no larger than the largest batch served so far.
    pub fn fresh_alloc_bytes(&self) -> usize {
        self.fresh
    }
}

/// A read-only batched-query index over one BCC solve. See the module docs
/// for the construction; [`new`](Self::new) builds it once, queries never
/// mutate.
pub struct BccIndex {
    // --- vertex-level O(1) tables (each length n) -----------------------
    /// Skeleton-connectivity label per vertex (copied out of the result so
    /// the index outlives engine re-solves).
    labels: Vec<u32>,
    /// Component head per label.
    head: Vec<V>,
    /// Vertex count of the BCC with label `l` (head included); 0 when `l`
    /// is not a real BCC.
    block_size: Vec<u32>,
    /// Block–cut-forest node of `v`: its cut node (`≥ num_block_nodes`)
    /// when `v` is an articulation point, else the one block containing
    /// it; `NONE` for isolated vertices.
    node_of: Vec<u32>,
    // --- block-cut forest (nodes 0..B are blocks, B.. are cuts) ----------
    /// Number of block nodes (`B`).
    num_block_nodes: usize,
    /// Root node of each node's tree (two vertices are connected iff
    /// their nodes share one).
    comp: Vec<u32>,
    /// Euler-tour first position per node.
    first: Vec<u32>,
    /// Node at every tour position.
    tour_node: Vec<u32>,
    /// Number of cut nodes on the root→node path, node inclusive.
    cuts_to_root: Vec<u32>,
    /// `argmin(tour depth)` over tour intervals — Euler-tour LCA. Owns its
    /// copy of the depth key array, so the depths are not stored twice.
    lca: ArgRmq,
    /// Caller-assigned graph-version tag (0 until
    /// [`set_version`](Self::set_version)). A snapshot host such as
    /// `fastbcc-serve` stamps this into every answer batch so consumers can
    /// tell which graph version produced an answer.
    version: u64,
}

impl BccIndex {
    /// Build the index from a solve result: [`build`](Self::build) over
    /// the result's [`block_cut_tree`]. `O(n)` work.
    pub fn new(r: &BccResult) -> Self {
        Self::build(r, &block_cut_tree(r))
    }

    /// Build the index from a solve result and its block–cut forest `t`
    /// (which must be `block_cut_tree(r)`). `O(n)` work.
    ///
    /// The vertex tables are parallel passes over `t`'s rank tables; the
    /// children CSR of `t`'s parent pointers and the one walk that writes
    /// the Euler tour, `first`, `comp` and `cuts_to_root` run sequentially
    /// over the forest's at most `2n` nodes.
    ///
    /// Panics if `(labels, head)` do not describe a forest: the walk then
    /// misses the nodes on a parent-pointer cycle.
    pub fn build(r: &BccResult, t: &BlockCutTree) -> Self {
        let n = r.labels.len();
        let BlockCutTree {
            blocks,
            block_rank,
            cut_id,
            parent,
            ..
        } = t;
        let nb = blocks.len();
        let nodes = parent.len();

        // Vertex tables: block sizes and forest node ids.
        // SAFETY: the scatter below writes every index `0..n` before use.
        let mut block_size: Vec<u32> = unsafe { uninit_vec(n) };
        {
            let view = UnsafeSlice::new(&mut block_size);
            par_for(n, |l| {
                let s = if r.is_bcc_label(l as u32) {
                    r.label_count[l] + (r.head[l] != NONE) as u32
                } else {
                    0
                };
                // SAFETY: label index written exactly once.
                unsafe { view.write(l, s) };
            });
        }
        let mut node_of = vec![NONE; n];
        {
            let view = UnsafeSlice::new(&mut node_of);
            par_for(n, |v| {
                let x = if cut_id[v] != NONE {
                    nb as u32 + cut_id[v]
                } else {
                    block_rank[r.labels[v] as usize] // NONE if the class is no BCC
                };
                if x != NONE {
                    // SAFETY: one write per vertex v.
                    unsafe { view.write(v, x) };
                }
            });
            // A non-cut vertex whose own label class is not a BCC can still
            // sit in exactly one block: the single block it heads.
            par_for(n, |l| {
                let h = r.head[l];
                if h != NONE
                    && block_rank[l] != NONE
                    && cut_id[h as usize] == NONE
                    && block_rank[r.labels[h as usize] as usize] == NONE
                {
                    // SAFETY: a vertex in this case belongs to one BCC, so
                    // exactly one label l reaches it (else it would be a cut).
                    unsafe { view.write(h as usize, block_rank[l]) };
                }
            });
        }

        // Children CSR, by counting nodes per parent: count into
        // `kid_off[p]`, scan to range ends, then place the nodes in
        // descending order while stepping each end back to its start, so
        // every child list ascends.
        let mut kid_off = vec![0u32; nodes + 1];
        for &p in parent {
            if p != NONE {
                kid_off[p as usize] += 1;
            }
        }
        let mut sum = 0;
        for o in kid_off.iter_mut() {
            sum += *o;
            *o = sum;
        }
        let mut kids = vec![0u32; sum as usize];
        for x in (0..nodes).rev() {
            let p = parent[x];
            if p != NONE {
                kid_off[p as usize] -= 1;
                kids[kid_off[p as usize] as usize] = x as u32;
            }
        }

        // One depth-first walk with an explicit stack (the forest can be
        // `2n` nodes deep): roots in node order, each child appended on
        // entry and its parent again on return. That is the vertex-sequence
        // Euler tour of every tree, `2·nodes − roots` positions in all.
        let roots = nodes - kids.len();
        let tour_len = 2 * nodes - roots;
        let is_cut_node = |x: u32| (x as usize >= nb) as u32;
        let mut tour_node: Vec<u32> = Vec::with_capacity(tour_len);
        let mut depth: Vec<u32> = Vec::with_capacity(tour_len);
        let mut first = vec![0u32; nodes];
        let mut comp = vec![0u32; nodes];
        let mut cuts_to_root = vec![0u32; nodes];
        // (node, next slot in `kids`) per node on the root path.
        let mut stack: Vec<(u32, u32)> = Vec::new();
        for root in 0..nodes as u32 {
            if parent[root as usize] != NONE {
                continue;
            }
            let x = root as usize;
            first[x] = tour_node.len() as u32;
            tour_node.push(root);
            depth.push(0);
            comp[x] = root;
            cuts_to_root[x] = is_cut_node(root);
            stack.push((root, kid_off[x]));
            while let Some(top) = stack.last_mut() {
                let x = top.0 as usize;
                if top.1 < kid_off[x + 1] {
                    let c = kids[top.1 as usize];
                    top.1 += 1;
                    let y = c as usize;
                    first[y] = tour_node.len() as u32;
                    tour_node.push(c);
                    depth.push(stack.len() as u32);
                    comp[y] = root;
                    cuts_to_root[y] = cuts_to_root[x] + is_cut_node(c);
                    stack.push((c, kid_off[y]));
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        tour_node.push(p);
                        depth.push(stack.len() as u32 - 1);
                    }
                }
            }
        }
        assert_eq!(
            tour_node.len(),
            tour_len,
            "labels/head do not describe a block-cut forest"
        );
        let lca = ArgRmq::build_from(depth, RmqKind::Min);

        Self {
            labels: r.labels.clone(),
            head: r.head.clone(),
            block_size,
            node_of,
            num_block_nodes: nb,
            comp,
            first,
            tour_node,
            cuts_to_root,
            lca,
            version: 0,
        }
    }

    /// The caller-assigned graph-version tag (0 if never set).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamp a graph-version tag onto this index. The tag is inert for the
    /// queries themselves; it exists so a snapshot host can hand out
    /// `Arc<BccIndex>` snapshots and tag every answer with the version of
    /// the graph that produced it.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Number of block nodes (= biconnected components).
    pub fn num_blocks(&self) -> usize {
        self.num_block_nodes
    }

    /// Number of cut nodes (= articulation points).
    pub fn num_cuts(&self) -> usize {
        self.comp.len() - self.num_block_nodes
    }

    /// Nodes of the block–cut forest.
    pub fn node_count(&self) -> usize {
        self.comp.len()
    }

    /// Heap bytes held by every index array (the "index bytes" column of
    /// the `queries` benchmark).
    pub fn bytes(&self) -> usize {
        4 * (self.labels.len()
            + self.head.len()
            + self.block_size.len()
            + self.node_of.len()
            + self.comp.len()
            + self.first.len()
            + self.tour_node.len()
            + self.cuts_to_root.len())
            + self.lca.bytes()
    }

    /// The label of a BCC containing both `u` and `v` (`u != v`), if any —
    /// the result representation's three-comparison trick: any two
    /// co-members of a BCC either share the label or one is the head of
    /// the other's class.
    #[inline(always)]
    fn common_block(&self, u: V, v: V) -> Option<u32> {
        let lu = self.labels[u as usize];
        let lv = self.labels[v as usize];
        if lu == lv && self.block_size[lu as usize] > 0 {
            Some(lu)
        } else if self.head[lu as usize] == v {
            Some(lu)
        } else if self.head[lv as usize] == u {
            Some(lv)
        } else {
            None
        }
    }

    /// Do `u` and `v` share a biconnected component? `O(1)`.
    /// `same_bcc(u, u)` is true iff `u` belongs to at least one BCC (i.e.
    /// has an incident edge).
    #[inline]
    pub fn same_bcc(&self, u: V, v: V) -> bool {
        if u == v {
            return self.node_of[u as usize] != NONE;
        }
        self.common_block(u, v).is_some()
    }

    /// Is `v` an articulation point? `O(1)`.
    #[inline]
    pub fn is_articulation(&self, v: V) -> bool {
        let x = self.node_of[v as usize];
        x != NONE && x as usize >= self.num_block_nodes
    }

    /// Is `{u, v}` a bridge edge? `O(1)`. True iff `u` and `v` share a
    /// BCC of exactly two vertices — a 2-vertex BCC is a single edge, so
    /// this is equivalent to "`(u, v)` is an edge and deleting it
    /// disconnects its endpoints".
    #[inline]
    pub fn is_bridge(&self, u: V, v: V) -> bool {
        u != v
            && matches!(self.common_block(u, v),
                        Some(l) if self.block_size[l as usize] == 2)
    }

    /// Number of articulation points separating `u` from `v`: vertices `w
    /// ∉ {u, v}` whose removal breaks every `u`–`v` path. `None` when no
    /// path exists at all (different components, or an isolated endpoint
    /// with `u != v`); `Some(0)` when `u == v`.
    ///
    /// Cost: one `argmin` LCA probe — two `O(B)` boundary-block scans
    /// (`B = 32`) plus an `O(1)` table lookup — and a four-term prefix-sum
    /// combination.
    pub fn cut_vertices_on_path(&self, u: V, v: V) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let a = self.node_of[u as usize];
        let b = self.node_of[v as usize];
        if a == NONE || b == NONE || self.comp[a as usize] != self.comp[b as usize] {
            return None;
        }
        if a == b {
            return Some(0); // same block (or same cut node): nothing between
        }
        let (fa, fb) = (self.first[a as usize], self.first[b as usize]);
        let (lo, hi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        let l = self.tour_node[self.lca.query(lo as usize, hi as usize)];
        let isc = |x: u32| (x as usize >= self.num_block_nodes) as u32;
        // Cut nodes on the a–b tree path, endpoints inclusive…
        let inclusive = self.cuts_to_root[a as usize] + self.cuts_to_root[b as usize]
            - 2 * self.cuts_to_root[l as usize]
            + isc(l);
        // …minus the endpoints' own nodes when they are cut nodes: a
        // vertex never separates itself from anything.
        Some(inclusive - isc(a) - isc(b))
    }

    /// Answer one query (the sequential path of
    /// [`answer_batch`](Self::answer_batch)).
    // Inlined, with `common_block`, into the batch loop: out of line
    // (which codegen-unit placement alone can decide) the batch serves
    // 10–30% fewer queries per second.
    #[inline]
    pub fn answer(&self, q: Query) -> QueryAnswer {
        match q {
            Query::SameBcc(u, v) => QueryAnswer::Bool(self.same_bcc(u, v)),
            Query::IsArticulation(v) => QueryAnswer::Bool(self.is_articulation(v)),
            Query::IsBridge(u, v) => QueryAnswer::Bool(self.is_bridge(u, v)),
            Query::CutVerticesOnPath(u, v) => QueryAnswer::Count(self.cut_vertices_on_path(u, v)),
        }
    }

    /// Answer a batch in parallel, writing into the pooled `scratch`.
    /// Answers land at the query's position. Queries are pure reads over
    /// immutable arrays, so the result is independent of the schedule and
    /// the thread budget; a warm scratch (any prior batch at least this
    /// large) makes the whole call allocation-free
    /// ([`QueryScratch::fresh_alloc_bytes`]` == 0`).
    pub fn answer_batch<'s>(
        &self,
        queries: &[Query],
        scratch: &'s mut QueryScratch,
    ) -> &'s [QueryAnswer] {
        let before = scratch.heap_bytes();
        scratch.answers.clear();
        scratch
            .answers
            .resize(queries.len(), QueryAnswer::Bool(false));
        {
            let view = UnsafeSlice::new(scratch.answers.as_mut_slice());
            // Finer grain than the default: a path query costs two block
            // scans, so ~512 queries amortize a steal comfortably.
            par_for_grain(queries.len(), 512, |i| {
                // SAFETY: slot i written exactly once.
                unsafe { view.write(i, self.answer(queries[i])) };
            });
        }
        scratch.fresh = scratch.heap_bytes().saturating_sub(before);
        &scratch.answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{fast_bcc, BccOpts};
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::Graph;

    fn index_of(g: &Graph) -> BccIndex {
        let r = fast_bcc(g, BccOpts::default());
        BccIndex::new(&r)
    }

    #[test]
    fn path_queries() {
        let ix = index_of(&path(5)); // 0-1-2-3-4
        assert!(ix.same_bcc(0, 1) && ix.same_bcc(3, 4));
        assert!(!ix.same_bcc(0, 2));
        assert!(ix.is_articulation(2) && !ix.is_articulation(0));
        assert!(ix.is_bridge(1, 2) && ix.is_bridge(2, 1));
        assert!(!ix.is_bridge(0, 4));
        assert_eq!(ix.cut_vertices_on_path(0, 4), Some(3));
        assert_eq!(ix.cut_vertices_on_path(1, 3), Some(1));
        assert_eq!(ix.cut_vertices_on_path(0, 1), Some(0));
        assert_eq!(ix.cut_vertices_on_path(2, 2), Some(0));
    }

    #[test]
    fn windmill_center_separates_blades() {
        let ix = index_of(&windmill(4));
        assert!(ix.is_articulation(0));
        for t1 in 0..4u32 {
            for t2 in 0..4u32 {
                let (a, b) = (1 + 2 * t1, 1 + 2 * t2);
                if t1 == t2 {
                    assert!(ix.same_bcc(a, a + 1));
                    assert_eq!(ix.cut_vertices_on_path(a, a + 1), Some(0));
                } else {
                    assert!(!ix.same_bcc(a, b));
                    assert_eq!(ix.cut_vertices_on_path(a, b), Some(1));
                }
            }
        }
        assert!(!ix.is_bridge(1, 2)); // triangle edge
        assert_eq!(ix.num_blocks(), 4);
        assert_eq!(ix.num_cuts(), 1);
    }

    #[test]
    fn biconnected_graphs_have_no_cuts() {
        for g in [cycle(9), complete(6), petersen()] {
            let ix = index_of(&g);
            assert_eq!(ix.num_cuts(), 0);
            assert_eq!(ix.num_blocks(), 1);
            assert!(ix.same_bcc(0, 2));
            assert!(!ix.is_bridge(0, 1));
            assert_eq!(ix.cut_vertices_on_path(0, 3), Some(0));
        }
    }

    #[test]
    fn disconnected_and_isolated() {
        let g = disjoint_union(&[&cycle(3), &path(2), &Graph::empty(2)]);
        let ix = index_of(&g);
        assert!(!ix.same_bcc(0, 3)); // different components
        assert_eq!(ix.cut_vertices_on_path(0, 3), None);
        assert_eq!(ix.cut_vertices_on_path(0, 5), None); // isolated endpoint
        assert_eq!(ix.cut_vertices_on_path(5, 5), Some(0));
        assert!(!ix.same_bcc(5, 5)); // isolated: member of no BCC
        assert!(ix.same_bcc(3, 3));
        assert!(ix.is_bridge(3, 4));
    }

    #[test]
    fn barbell_path_counts() {
        // Cliques 0..=3 and 4..=7 joined by the bridge path 3–8–4: the
        // articulation points are 3, 8, and 4.
        let g = barbell(4, 2);
        let ix = index_of(&g);
        let r = fast_bcc(&g, BccOpts::default());
        assert_eq!(crate::postprocess::articulation_points(&r).len(), 3);
        // Clique interior to clique interior: every articulation point lies
        // between them.
        assert_eq!(ix.cut_vertices_on_path(0, 7), Some(3));
        // Up to the middle bridge vertex (itself a cut, so not counted as a
        // separator of the pair): only the near attachment 3 lies between.
        assert_eq!(ix.cut_vertices_on_path(0, 8), Some(1));
        // Within one clique: none.
        assert_eq!(ix.cut_vertices_on_path(0, 2), Some(0));
    }

    #[test]
    fn batch_matches_sequential_and_reuses_scratch() {
        let g = clique_chain(5, 4);
        let ix = index_of(&g);
        let n = g.n() as u32;
        let mut queries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                queries.push(Query::SameBcc(i, j));
                queries.push(Query::IsBridge(i, j));
                queries.push(Query::CutVerticesOnPath(i, j));
            }
            queries.push(Query::IsArticulation(i));
        }
        let mut scratch = QueryScratch::new();
        let got: Vec<QueryAnswer> = ix.answer_batch(&queries, &mut scratch).to_vec();
        let want: Vec<QueryAnswer> = queries.iter().map(|&q| ix.answer(q)).collect();
        assert_eq!(got, want);
        assert!(scratch.heap_bytes() > 0);
        // Warm batches of the same (or smaller) size allocate nothing.
        for take in [queries.len(), queries.len() / 2, 1] {
            ix.answer_batch(&queries[..take], &mut scratch);
            assert_eq!(scratch.fresh_alloc_bytes(), 0, "batch of {take}");
        }
    }

    #[test]
    fn empty_graph_index() {
        let ix = index_of(&Graph::empty(0));
        assert_eq!(ix.node_count(), 0);
        let mut scratch = QueryScratch::new();
        assert!(ix.answer_batch(&[], &mut scratch).is_empty());
    }

    #[test]
    fn deep_path_forest_walks_without_recursion() {
        // 2n − 3 forest nodes in one chain; a recursive walk would
        // overflow the test thread's stack.
        let n = 200_000;
        let ix = index_of(&path(n));
        assert_eq!(ix.num_blocks(), n - 1);
        assert_eq!(ix.num_cuts(), n - 2);
        assert_eq!(ix.cut_vertices_on_path(0, n as V - 1), Some(n as u32 - 2));
        assert_eq!(ix.cut_vertices_on_path(1, n as V - 2), Some(n as u32 - 4));
    }

    #[test]
    fn wide_star_forest() {
        let t = 20_000;
        let ix = index_of(&windmill(t));
        assert_eq!((ix.num_blocks(), ix.num_cuts()), (t, 1));
        let last = 2 * t as V - 1; // second vertex of the last blade
        assert_eq!(ix.cut_vertices_on_path(1, last), Some(1));
        assert_eq!(ix.cut_vertices_on_path(1, 2), Some(0));
        assert_eq!(ix.cut_vertices_on_path(0, last), Some(0));
        assert!(ix.same_bcc(0, last) && !ix.same_bcc(1, last));
    }

    /// The walk's tables against the block–cut forest's parent pointers:
    /// every node's `first` position holds it, the tour has
    /// `2·nodes − roots` positions, and each node's `comp` is the root its
    /// parent pointers climb to.
    fn check_forest_tables(g: &Graph) {
        let r = fast_bcc(g, BccOpts::default());
        let t = block_cut_tree(&r);
        let ix = BccIndex::build(&r, &t);
        let nodes = ix.node_count();
        assert_eq!(
            (ix.num_blocks(), ix.num_cuts()),
            (t.blocks.len(), t.cuts.len())
        );
        for x in 0..nodes {
            assert_eq!(ix.tour_node[ix.first[x] as usize], x as u32, "node {x}");
            let mut root = x;
            while t.parent[root] != NONE {
                root = t.parent[root] as usize;
            }
            assert_eq!(ix.comp[x], root as u32, "node {x}");
        }
        let roots = t.parent.iter().filter(|&&p| p == NONE).count();
        assert_eq!(ix.tour_node.len(), 2 * nodes - roots);
    }

    #[test]
    fn forest_tables_on_the_generator_zoo() {
        use fastbcc_graph::generators::{geometric, grid, rmat};
        let zoo = [
            Graph::empty(0),
            Graph::empty(5),
            path(2),
            path(40),
            cycle(7),
            star(9),
            windmill(6),
            barbell(5, 3),
            binary_tree(63),
            ladder(10),
            wheel(8),
            theta(2, 3, 4),
            clique_chain(5, 4),
            disjoint_union(&[&windmill(3), &path(6), &cycle(4), &Graph::empty(3)]),
            disjoint_union(&[&Graph::empty(2), &barbell(3, 2), &star(5)]),
            grid::grid2d_sampled(20, 20, 0.6, 3),
            geometric::random_geometric(2000, geometric::road_like_radius(2000), 5),
            rmat::rmat(10, 3000, 7),
        ];
        for g in &zoo {
            check_forest_tables(g);
        }
    }

    #[test]
    fn index_bytes_within_budget() {
        for g in [windmill(20), path(500), clique_chain(6, 30)] {
            let ix = index_of(&g);
            let budget = crate::space::query_index_budget_bytes(g.n());
            assert!(
                ix.bytes() > 0 && ix.bytes() <= budget,
                "index {} B outside (0, {budget}] for n={}",
                ix.bytes(),
                g.n()
            );
        }
    }
}
