//! Online BCC query serving: [`BccIndex`].
//!
//! The solver produces the paper's `O(n)` BCC representation; the paper's
//! introduction motivates BCC as the substrate for *downstream queries* —
//! network reliability, centrality, planarity. This module is that layer:
//! a read-only index built **once** from a [`BccResult`] plus its
//! [`BlockCutTree`], answering
//!
//! | query | answer | cost |
//! |---|---|---|
//! | [`same_bcc(u, v)`](BccIndex::same_bcc) | share a biconnected component? | `O(1)` |
//! | [`is_articulation(v)`](BccIndex::is_articulation) | cut vertex? | `O(1)` |
//! | [`is_bridge(u, v)`](BccIndex::is_bridge) | is `{u, v}` a bridge edge? | `O(1)` |
//! | [`cut_vertices_on_path(u, v)`](BccIndex::cut_vertices_on_path) | # articulation points separating `u` from `v` | `O(B)` boundary scans + `O(1)` table |
//!
//! The machinery is the classic Euler-tour LCA, instantiated on the
//! **block–cut forest** instead of the input graph: the forest becomes a
//! CSR graph, `fastbcc_ett::root_forest` roots it and lays out the global
//! tour, [`fastbcc_ett::tour_depths`] turns the tour into a ±1 depth
//! array, and a position-returning block RMQ
//! ([`fastbcc_primitives::rmq::ArgRmq`]) answers `argmin(depth)` over tour
//! intervals — the LCA of two forest nodes. Per-node prefix counts of cut
//! nodes (`cuts_to_root`) then make "articulation points on the tree path"
//! a four-term sum, which is exactly the set of vertices whose removal
//! separates the two query endpoints.
//!
//! Space follows the repo's discipline: everything is flat `u32` arrays —
//! five `O(n)` vertex tables plus `O(t)` tour tables and the linear-space
//! blocked RMQ (`t ≤ 4n`), all reported by [`BccIndex::bytes`] and bounded
//! by [`crate::space::query_index_budget_bytes`]. Batches run on the
//! parallel runtime through a pooled [`QueryScratch`], so a warm
//! [`answer_batch`](BccIndex::answer_batch) reports
//! [`fresh_alloc_bytes`](QueryScratch::fresh_alloc_bytes)` == 0` at any
//! `FASTBCC_THREADS` budget — the same zero-allocation gate the engine's
//! solve path honors.

use crate::algo::BccResult;
use crate::block_cut_tree::BlockCutTree;
use fastbcc_ett::{root_forest, tour_depths};
use fastbcc_graph::{stats::cc_labels_seq, Graph, NONE, V};
use fastbcc_primitives::par::{par_for, par_for_grain};
use fastbcc_primitives::rmq::{ArgRmq, RmqKind};
use fastbcc_primitives::scan::scan_inclusive_inplace;
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
/// for the construction; [`build`](Self::build) runs the parallel passes
/// once, queries never mutate.
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
    /// Rank of `v` in the tree's cut list; `NONE` for non-articulation
    /// vertices.
    cut_id: Vec<u32>,
    /// Block–cut-forest node of `v`: its cut node when `v` is an
    /// articulation point, else the one block containing it; `NONE` for
    /// isolated vertices.
    node_of: Vec<u32>,
    // --- block-cut forest (nodes 0..B are blocks, B.. are cuts) ----------
    /// Number of block nodes (`B`).
    num_block_nodes: usize,
    /// Forest-component representative per node (two vertices can be
    /// connected through the forest iff their nodes share one).
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
    /// Build the index from a solve result and its block–cut tree.
    /// `O(n + t log t)` work over the forest tour length `t ≤ 4n`. The
    /// per-element passes are parallel primitives; two small passes (the
    /// forest-component BFS and the CSR degree counting) run sequentially
    /// over the forest, which has at most `2n` nodes and `2(n−1)` edges.
    pub fn build(r: &BccResult, t: &BlockCutTree) -> Self {
        let n = r.labels.len();
        let nb = t.blocks.len();
        let nc = t.cuts.len();
        let nodes = nb + nc;

        // Vertex tables: block sizes, block/cut ranks, forest node ids.
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
        let mut block_rank = vec![NONE; n];
        {
            let view = UnsafeSlice::new(&mut block_rank);
            let blocks = &t.blocks;
            // SAFETY: block labels are distinct vertices.
            par_for(nb, |i| unsafe { view.write(blocks[i] as usize, i as u32) });
        }
        let mut cut_id = vec![NONE; n];
        {
            let view = UnsafeSlice::new(&mut cut_id);
            let cuts = &t.cuts;
            // SAFETY: cut vertices are distinct.
            par_for(nc, |i| unsafe { view.write(cuts[i] as usize, i as u32) });
        }

        let mut node_of = vec![NONE; n];
        {
            let view = UnsafeSlice::new(&mut node_of);
            let (cut_id, block_rank) = (&cut_id, &block_rank);
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

        // The block-cut forest as a CSR graph — assembled directly, no
        // sorting: `t.edges` is already grouped by block (sorted by
        // `(block, cut)`, and block labels ascend with block ranks), and
        // the tree's cut-side CSR (`cut_offsets`/`cut_adj`) *is* the cut
        // half of the adjacency. Nodes 0..nb are blocks, nb.. are cuts;
        // within every neighbor list the mapped ids stay ascending because
        // both rank maps are monotone in vertex id.
        let ne = t.edges.len();
        let mut offsets = vec![0usize; nodes + 1];
        for &(b, _) in &t.edges {
            offsets[block_rank[b as usize] as usize + 1] += 1;
        }
        for i in 0..nb {
            offsets[i + 1] += offsets[i];
        }
        for i in 0..=nc {
            offsets[nb + i] = ne + t.cut_offsets[i] as usize;
        }
        // SAFETY: the two scatters below cover `0..ne` and `ne..2*ne`, so
        // every index is written before use.
        let mut arcs: Vec<V> = unsafe { uninit_vec(2 * ne) };
        {
            let view = UnsafeSlice::new(&mut arcs);
            let (edges, cut_adj, block_rank, cut_id) = (&t.edges, &t.cut_adj, &block_rank, &cut_id);
            // Block side: the grouped edge list in order. SAFETY: slot j
            // (and ne + j below) written exactly once.
            par_for(ne, |j| unsafe {
                view.write(j, nb as u32 + cut_id[edges[j].1 as usize])
            });
            // Cut side: the tree's cut CSR with labels mapped to ranks.
            par_for(ne, |j| unsafe {
                view.write(ne + j, block_rank[cut_adj[j] as usize])
            });
        }
        let forest = Graph::from_raw_parts(offsets, arcs);
        let comp = cc_labels_seq(&forest);
        let rf = root_forest(&forest, &comp, 0xB1_0C5);
        let lca = ArgRmq::build_from(tour_depths(&rf), RmqKind::Min);

        // Cut-node prefix counts along the tour: the same ±1-walk trick as
        // tour_depths, with "is a cut node" as the weight. The running
        // value at any position p is the number of cut nodes on the path
        // from tour[p]'s root to tour[p], inclusive.
        let tlen = rf.tour_len();
        let is_cut_node = |x: V| (x as usize >= nb) as i32;
        // SAFETY: the scatter below writes every tour position before use.
        let mut csteps: Vec<i32> = unsafe { uninit_vec(tlen) };
        {
            let view = UnsafeSlice::new(&mut csteps);
            let tour = &rf.tour_vertex;
            par_for(tlen, |p| {
                let s = if p == 0 {
                    is_cut_node(tour[0])
                } else {
                    let y = tour[p];
                    let x = tour[p - 1];
                    if rf.parent[y as usize] == x {
                        is_cut_node(y) // entering y from its parent
                    } else if rf.parent[y as usize] == NONE && rf.first[y as usize] as usize == p {
                        is_cut_node(y) - is_cut_node(x) // tree boundary reset
                    } else {
                        -is_cut_node(x) // returning from child x to y
                    }
                };
                // SAFETY: position p written exactly once.
                unsafe { view.write(p, s) };
            });
        }
        scan_inclusive_inplace(&mut csteps, 0i32, |a, b| a + b);
        let mut cuts_to_root: Vec<u32> = unsafe { uninit_vec(nodes) };
        {
            let view = UnsafeSlice::new(&mut cuts_to_root);
            let (first, csteps) = (&rf.first, &csteps);
            // SAFETY: one write per node.
            par_for(nodes, |x| unsafe {
                view.write(x, csteps[first[x] as usize] as u32)
            });
        }

        Self {
            labels: r.labels.clone(),
            head: r.head.clone(),
            block_size,
            cut_id,
            node_of,
            num_block_nodes: nb,
            comp,
            first: rf.first,
            tour_node: rf.tour_vertex,
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

    /// Vertex count of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
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
            + self.cut_id.len()
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
        self.cut_id[v as usize] != NONE
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
    use crate::block_cut_tree::block_cut_tree;
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::Graph;

    fn index_of(g: &Graph) -> BccIndex {
        let r = fast_bcc(g, BccOpts::default());
        let t = block_cut_tree(&r);
        BccIndex::build(&r, &t)
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
