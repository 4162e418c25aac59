//! The scratch-pooled FAST-BCC engine.
//!
//! [`fast_bcc`](crate::fast_bcc) answers one query and throws every
//! intermediate array away. A service answering many BCC queries over
//! evolving graphs re-pays those `O(n)` allocations on every call — even
//! though the paper's `O(n)` auxiliary-space bound means the *shape* of
//! the scratch memory is identical run over run. [`BccEngine`] makes that
//! observation operational:
//!
//! * a [`Workspace`] owns every major per-phase array — the LDD
//!   cluster/parent arrays and the union–find (via
//!   `fastbcc_connectivity::CcScratch`), the First-CC labels and the
//!   spanning-forest edge buffer, the forest CSR arrays, the rooted-forest
//!   and ETT successor/rank arrays (`fastbcc_ett::EttScratch`), and the
//!   tagging `w1`/`w2` buffers (`crate::tags::TagScratch`);
//! * the engine's result slot recycles the output arrays too (labels,
//!   heads, label counts, and the five tag arrays);
//! * [`BccEngine::solve`] runs Alg. 1 end to end writing only into those
//!   borrowed buffers. The first solve sizes everything; subsequent solves
//!   on same-shaped inputs perform **zero** major-array allocations, which
//!   the [`SpaceTracker`] inside the workspace verifies: its `fresh()`
//!   counter tallies capacity growth per solve and lands on 0 for a
//!   repeated input (reported per run as
//!   [`BccResult::fresh_alloc_bytes`]).
//!
//! Transient allocations remain by design, and `fresh()` deliberately
//! does **not** count them: the tagging sparse tables (freed before
//! Last-CC, exactly as the one-shot flow accounts them), the
//! forest-adjacency atomic cursor array, the counting-sort
//! histogram/cursor tables and pack offset vectors inside the
//! primitives, and the radix-sort ping-pong passes on huge key spaces.
//! These are short-lived churn within a solve — candidates for future
//! pooling — whereas `fresh()` answers the narrower question the
//! zero-allocation gate poses: did any *pooled* buffer (the major arrays
//! listed above) have to grow this solve. The frontier machinery
//! (per-round frontier double-buffer, start-round grouping, and the
//! shared pre-counted edgeMap claim buffer with its dense bitmaps) *is*
//! pooled: those buffers live in the scratches, are reserved to bounds
//! deterministic in `(n, m)` alone — nothing scales with the worker
//! ceiling anymore — and are counted by `heap_bytes()`, which is why
//! `fresh() == 0` holds on warm solves at any thread budget.

use crate::algo::{assign_heads_in, BccOpts, BccResult, Breakdown, CcScheme};
use crate::space::SpaceTracker;
use crate::tags::{compute_tags_in, TagScratch};
use fastbcc_connectivity::cc::{ldd_uf_jtb_filtered_in, uf_async_filtered_in, CcScratch};
use fastbcc_connectivity::ldd::LddOpts;
use fastbcc_connectivity::spanning_forest::forest_adjacency_in;
use fastbcc_ett::{root_forest_in, EttScratch, RootedForest};
use fastbcc_graph::{Graph, GraphView, V};
use std::time::Instant;

/// Every reusable per-phase buffer of one FAST-BCC solve, sized lazily on
/// first use and pooled across solves.
#[derive(Default)]
pub struct Workspace {
    /// LDD scratch + concurrent union–find, shared by First-CC and Last-CC.
    cc: CcScratch,
    /// First-CC component labels (tree labels for the rooting step).
    first_labels: Vec<u32>,
    /// Spanning-forest edge buffer produced by First-CC.
    forest: Vec<(V, V)>,
    /// Forest CSR offsets, recycled through `Graph::{from,into}_raw_parts`.
    tree_offsets: Vec<usize>,
    /// Forest CSR arcs, recycled the same way.
    tree_arcs: Vec<V>,
    /// Rooted forest (parents + Euler-tour positions) from the ETT.
    rf: RootedForest,
    /// ETT successor/rank arrays and list-ranking sample tables.
    ett: EttScratch,
    /// Tagging `w1`/`w2` vertex- and tour-ordered buffers.
    tag: TagScratch,
    /// Live/peak/fresh auxiliary-space accounting for the current solve.
    space: SpaceTracker,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserve the pooled buffers for an `n`-vertex graph, so even the
    /// first solve avoids most growth.
    ///
    /// `m` (undirected edge count) sizes only the edgeMap frontier layer's
    /// shared claim-slot buffer, which is bounded by the sparse↔dense
    /// switch threshold (`max(n, arcs/20)` slots). Everything else is
    /// `O(n)`: the input CSR is borrowed, and every per-edge pass writes
    /// only `O(n)` outputs (the spanning forest and ETT arc arrays are
    /// bounded by `2(n-1)`). The `O(√n)` list-ranking sample tables size
    /// themselves on first use.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut ws = Self::new();
        ws.cc.reserve(n, 2 * m);
        ws.first_labels.reserve(n);
        ws.forest.reserve(n);
        ws.tree_offsets.reserve(n + 1);
        ws.tree_arcs.reserve(2 * n);
        ws.rf.parent.reserve(n);
        ws.rf.first.reserve(n);
        ws.rf.last.reserve(n);
        ws.rf.roots.reserve(n);
        ws.rf.tour_vertex.reserve(2 * n);
        ws.ett.reserve(n);
        ws.tag.reserve(n);
        ws
    }

    /// The space accounting of the most recent solve.
    pub fn space(&self) -> &SpaceTracker {
        &self.space
    }

    /// Heap bytes currently reserved by every pooled buffer (capacity, not
    /// length). Growth of this value between solves is what
    /// [`SpaceTracker::fresh`] reports.
    pub fn heap_bytes(&self) -> usize {
        self.cc.heap_bytes()
            + 4 * self.first_labels.capacity()
            + std::mem::size_of::<(V, V)>() * self.forest.capacity()
            + 8 * self.tree_offsets.capacity()
            + 4 * self.tree_arcs.capacity()
            + self.rf.heap_bytes()
            + self.ett.heap_bytes()
            + self.tag.heap_bytes()
    }
}

/// Heap bytes reserved by the recycled result arrays.
pub(crate) fn result_heap_bytes(r: &BccResult) -> usize {
    4 * (r.labels.capacity() + r.head.capacity() + r.label_count.capacity()) + r.tags.heap_bytes()
}

/// A reusable FAST-BCC solver: one [`Workspace`] plus a recycled result
/// slot. Construct once, call [`solve`](Self::solve) per graph.
///
/// ```
/// use fastbcc_core::engine::BccEngine;
/// use fastbcc_core::BccOpts;
/// use fastbcc_graph::generators::classic::{cycle, windmill};
///
/// let mut engine = BccEngine::new(BccOpts::default());
/// assert_eq!(engine.solve(&windmill(6)).num_bcc, 6);
/// // Second solve: same workspace, no new major-array allocations.
/// assert_eq!(engine.solve(&cycle(10)).num_bcc, 1);
/// ```
pub struct BccEngine {
    opts: BccOpts,
    ws: Workspace,
    pub(crate) result: BccResult,
    /// Batch-dynamic state (attached graph, DSU, event scratch); empty
    /// until [`BccEngine::attach`] is called. Boxed so the static solve
    /// path doesn't pay for its footprint.
    pub(crate) dynamic: Box<crate::dynamic::DynState>,
}

fn empty_result() -> BccResult {
    BccResult {
        labels: Vec::new(),
        head: Vec::new(),
        label_count: Vec::new(),
        tags: Default::default(),
        num_bcc: 0,
        num_cc: 0,
        breakdown: Breakdown::default(),
        aux_peak_bytes: 0,
        fresh_alloc_bytes: 0,
        arena_bytes: 0,
    }
}

impl BccEngine {
    /// An engine with an empty workspace (sized by the first solve).
    pub fn new(opts: BccOpts) -> Self {
        Self {
            opts,
            ws: Workspace::new(),
            result: empty_result(),
            dynamic: Box::default(),
        }
    }

    /// An engine pre-sized for `n`-vertex / `m`-edge inputs (the result
    /// slot's recycled arrays included).
    pub fn with_capacity(n: usize, m: usize, opts: BccOpts) -> Self {
        let mut result = empty_result();
        result.labels.reserve(n);
        result.head.reserve(n);
        result.label_count.reserve(n);
        result.tags.parent.reserve(n);
        result.tags.first.reserve(n);
        result.tags.last.reserve(n);
        result.tags.low.reserve(n);
        result.tags.high.reserve(n);
        Self {
            opts,
            ws: Workspace::with_capacity(n, m),
            result,
            dynamic: Box::default(),
        }
    }

    /// The options every solve runs with.
    pub fn opts(&self) -> BccOpts {
        self.opts
    }

    /// The pooled workspace (for space inspection).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Solve and move the result out, consuming the engine — the one-shot
    /// path behind [`crate::fast_bcc`].
    pub fn solve_into(mut self, g: &Graph) -> BccResult {
        self.solve(g);
        self.result
    }

    /// Build a [`crate::query::BccIndex`] over the most recent solve (the
    /// build-then-serve flow: `solve` once per graph version, `build_index`
    /// once, answer query traffic from the index — it owns copies of the
    /// arrays it needs, so it stays valid across later re-solves).
    pub fn build_index(&self) -> crate::query::BccIndex {
        let tree = crate::block_cut_tree::block_cut_tree(&self.result);
        crate::query::BccIndex::build(&self.result, &tree)
    }

    /// [`build_index`](Self::build_index) with a graph-version tag stamped
    /// on the result — the handoff a snapshot host (`fastbcc-serve`) uses:
    /// solve the next graph version, build its index, publish it with the
    /// version every answer batch will carry.
    pub fn build_index_versioned(&self, version: u64) -> crate::query::BccIndex {
        let mut ix = self.build_index();
        ix.set_version(version);
        ix
    }

    /// Run FAST-BCC on `g`, reusing every pooled buffer. The returned
    /// reference is valid until the next `solve`; clone fields out if you
    /// need them to outlive it.
    pub fn solve(&mut self, g: &Graph) -> &BccResult {
        self.solve_impl(g, None)
    }

    /// Run FAST-BCC on any [`GraphView`] backend — a flat [`Graph`], a
    /// [`fastbcc_graph::CompressedGraph`], or an mmap-backed
    /// [`fastbcc_graph::MappedGraph`] variant — reusing every pooled
    /// buffer exactly like [`solve`](Self::solve). Compressed and mapped
    /// backends are decoded per-block inside the traversal hot loops;
    /// no flat neighbor arrays are ever materialized, so the auxiliary
    /// footprint stays `O(n)` regardless of backend.
    ///
    /// Because the engine does not own or copy the view, any previously
    /// [`attach`](Self::attach)ed batch-dynamic graph is **detached**:
    /// a later [`apply_batch`](Self::apply_batch) without a fresh
    /// `attach` panics instead of silently evolving a stale CSR.
    pub fn solve_view<G: GraphView>(&mut self, g: &G) -> &BccResult {
        self.dynamic.detach_graph();
        self.solve_impl(g, None)
    }

    /// The engine's current result — whatever the most recent
    /// [`solve`](Self::solve), [`attach`](Self::attach), or
    /// [`apply_batch`](Self::apply_batch) produced (empty before the
    /// first solve). Lets dynamic callers re-read the maintained result
    /// without holding the mutable borrow those calls take.
    pub fn result(&self) -> &BccResult {
        &self.result
    }

    /// [`solve`](Self::solve) with a forced spanning-tree root: after
    /// First-CC, `root`'s component labels are remapped so `root` becomes
    /// its own representative, which [`root_forest_in`] then picks as the
    /// tree root. Used by the batch-dynamic region re-solver
    /// ([`Self::apply_batch`]), which must anchor a sub-solve at a block's
    /// head so the splice keeps the global orientation.
    pub(crate) fn solve_with_root(&mut self, g: &Graph, root: V) -> &BccResult {
        self.solve_impl(g, Some(root))
    }

    fn solve_impl<G: GraphView>(&mut self, g: &G, force_root: Option<V>) -> &BccResult {
        let n = g.n();
        let opts = self.opts;
        let ws = &mut self.ws;
        let res = &mut self.result;
        let heap_before = ws.heap_bytes() + result_heap_bytes(res);
        ws.space.begin_solve();

        if n == 0 {
            res.labels.clear();
            res.head.clear();
            res.label_count.clear();
            // Clear (don't replace) the tag arrays: replacing would drop
            // their pooled capacity and force the next non-empty solve to
            // reallocate all five.
            res.tags.parent.clear();
            res.tags.first.clear();
            res.tags.last.clear();
            res.tags.low.clear();
            res.tags.high.clear();
            res.num_bcc = 0;
            res.num_cc = 0;
            res.breakdown = Breakdown::default();
            res.aux_peak_bytes = 0;
            res.fresh_alloc_bytes = 0;
            res.arena_bytes = ws.cc.arena_bytes();
            return &self.result;
        }

        let ldd_opts = LddOpts {
            beta: None,
            local_search: opts.local_search,
            seed: opts.seed,
            ..Default::default()
        };

        // ---- Step 1: First-CC (spanning forest) -------------------------
        let t0 = Instant::now();
        let all_edges = |_: V, _: V| true;
        let num_cc = match opts.scheme {
            CcScheme::LddUfJtb => ldd_uf_jtb_filtered_in(
                g,
                ldd_opts,
                &all_edges,
                &mut ws.cc,
                &mut ws.first_labels,
                Some(&mut ws.forest),
            ),
            CcScheme::UfAsync => uf_async_filtered_in(
                g,
                &all_edges,
                &mut ws.cc,
                &mut ws.first_labels,
                Some(&mut ws.forest),
            ),
        };
        let first_cc = t0.elapsed();
        debug_assert_eq!(ws.forest.len(), n - num_cc);
        if let Some(r) = force_root {
            // Remap `r`'s component label to `r` itself. No other vertex
            // can already carry label `r` (labels are component reps), so
            // this only moves the root choice, never merges components.
            let rep = ws.first_labels[r as usize];
            if rep != r {
                for v in 0..n {
                    if ws.first_labels[v] == rep {
                        ws.first_labels[v] = r;
                    }
                }
            }
        }
        // LDD cluster/parent arrays + UF + labels + forest edges, plus the
        // shared frontier-staging buffers the connectivity phases claim
        // through (edgeMap slots, dense bitmaps, local-search stacks).
        ws.space
            .alloc(4 * n * 3 + 4 * n + 8 * ws.forest.len() + ws.cc.arena_bytes());

        // ---- Step 2: Rooting (ETT) --------------------------------------
        let t1 = Instant::now();
        forest_adjacency_in(n, &ws.forest, &mut ws.tree_offsets, &mut ws.tree_arcs);
        let tree = Graph::from_raw_parts(
            std::mem::take(&mut ws.tree_offsets),
            std::mem::take(&mut ws.tree_arcs),
        );
        root_forest_in(
            &tree,
            &ws.first_labels,
            opts.seed ^ 0xE77,
            &mut ws.rf,
            &mut ws.ett,
        );
        let rooting = t1.elapsed();
        ws.space.alloc(tree.bytes() + ws.rf.bytes());
        // Hand the forest CSR allocations back to the pool.
        let (tree_offsets, tree_arcs) = tree.into_raw_parts();
        ws.tree_offsets = tree_offsets;
        ws.tree_arcs = tree_arcs;

        // ---- Step 3: Tagging --------------------------------------------
        let t2 = Instant::now();
        let table_bytes = compute_tags_in(g, &ws.rf, &mut res.tags, &mut ws.tag);
        let tagging = t2.elapsed();
        ws.space.alloc(res.tags.bytes() + table_bytes);
        ws.space.free(table_bytes); // sparse tables freed inside compute_tags_in

        // ---- Step 4: Last-CC on the implicit skeleton -------------------
        let t3 = Instant::now();
        let tags = &res.tags;
        let skeleton_filter = |u: V, v: V| tags.in_skeleton(u, v);
        match opts.scheme {
            CcScheme::LddUfJtb => ldd_uf_jtb_filtered_in(
                g,
                LddOpts {
                    seed: opts.seed ^ 0x1A57,
                    ..ldd_opts
                },
                &skeleton_filter,
                &mut ws.cc,
                &mut res.labels,
                None,
            ),
            CcScheme::UfAsync => {
                uf_async_filtered_in(g, &skeleton_filter, &mut ws.cc, &mut res.labels, None)
            }
        };
        ws.space.alloc(4 * n * 3);

        let num_bcc = assign_heads_in(&res.labels, &res.tags, &mut res.head, &mut res.label_count);
        let last_cc = t3.elapsed();
        ws.space.alloc(8 * n);

        let heap_after = ws.heap_bytes() + result_heap_bytes(res);
        ws.space.note_fresh(heap_after.saturating_sub(heap_before));

        res.num_bcc = num_bcc;
        res.num_cc = num_cc;
        res.breakdown = Breakdown {
            first_cc,
            rooting,
            tagging,
            last_cc,
        };
        res.aux_peak_bytes = ws.space.peak();
        res.fresh_alloc_bytes = ws.space.fresh();
        res.arena_bytes = ws.cc.arena_bytes();
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_bcc;
    use crate::postprocess::{articulation_points, bridges, canonical_bccs};
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::generators::{grid2d, rmat};
    use fastbcc_primitives::with_threads;

    #[test]
    fn engine_matches_one_shot_on_zoo() {
        let mut engine = BccEngine::new(BccOpts::default());
        for g in [
            windmill(6),
            barbell(5, 3),
            cycle(40),
            clique_chain(5, 4),
            grid2d(12, 9, false),
            rmat(9, 2000, 11),
            disjoint_union(&[&cycle(4), &path(3), &complete(5)]),
        ] {
            let fresh = fast_bcc(&g, BccOpts::default());
            let pooled = engine.solve(&g);
            assert_eq!(pooled.num_bcc, fresh.num_bcc);
            assert_eq!(pooled.num_cc, fresh.num_cc);
            assert_eq!(canonical_bccs(pooled), canonical_bccs(&fresh));
            assert_eq!(articulation_points(pooled), articulation_points(&fresh));
            assert_eq!(bridges(pooled).len(), bridges(&fresh).len());
        }
    }

    #[test]
    fn second_solve_allocates_nothing() {
        // Single-threaded so frontier sizes (and thus transient capacities)
        // are identical run over run.
        with_threads(1, || {
            let g = rmat(10, 6000, 3);
            let mut engine = BccEngine::new(BccOpts::default());
            let first_fresh = engine.solve(&g).fresh_alloc_bytes;
            assert!(first_fresh > 0, "first solve must size the workspace");
            for _ in 0..3 {
                let r = engine.solve(&g);
                assert_eq!(
                    r.fresh_alloc_bytes, 0,
                    "repeat solve reallocated workspace buffers"
                );
                assert!(r.aux_peak_bytes > 0);
            }
        });
    }

    #[test]
    fn solves_are_bit_identical_single_threaded() {
        with_threads(1, || {
            let g = grid2d(25, 17, true);
            let baseline = fast_bcc(&g, BccOpts::default());
            let mut engine = BccEngine::new(BccOpts::default());
            // Solve a different graph in between to dirty the buffers.
            engine.solve(&windmill(8));
            let r = engine.solve(&g);
            assert_eq!(r.labels, baseline.labels);
            assert_eq!(r.head, baseline.head);
            assert_eq!(r.label_count, baseline.label_count);
            assert_eq!(r.tags.parent, baseline.tags.parent);
            assert_eq!(r.tags.low, baseline.tags.low);
            assert_eq!(r.tags.high, baseline.tags.high);
            assert_eq!(r.num_bcc, baseline.num_bcc);
        });
    }

    #[test]
    fn shrinking_and_growing_inputs_stay_correct() {
        let mut engine = BccEngine::new(BccOpts::default());
        let sizes = [2000usize, 10, 500, 3, 1000];
        for &n in &sizes {
            assert_eq!(engine.solve(&cycle(n)).num_bcc, 1, "cycle({n})");
            assert_eq!(engine.solve(&path(n)).num_bcc, n - 1, "path({n})");
        }
        assert_eq!(engine.solve(&Graph::empty(0)).num_bcc, 0);
        assert_eq!(engine.solve(&Graph::empty(5)).num_cc, 5);
        assert_eq!(engine.solve(&windmill(3)).num_bcc, 3);
    }

    #[test]
    fn empty_graph_interleave_keeps_buffers_warm() {
        with_threads(1, || {
            let g = rmat(9, 3000, 5);
            let mut engine = BccEngine::new(BccOpts::default());
            engine.solve(&g);
            assert_eq!(engine.solve(&Graph::empty(0)).num_bcc, 0);
            let r = engine.solve(&g);
            assert_eq!(
                r.fresh_alloc_bytes, 0,
                "empty-graph solve dropped pooled capacity"
            );
        });
    }

    #[test]
    fn with_capacity_presizes() {
        with_threads(1, || {
            let g = cycle(512);
            let mut cold = BccEngine::new(BccOpts::default());
            let cold_fresh = cold.solve(&g).fresh_alloc_bytes;

            let mut engine = BccEngine::with_capacity(512, 512, BccOpts::default());
            let before = engine.workspace().heap_bytes();
            assert!(before >= 4 * 512 * 4, "with_capacity reserved too little");
            let presized_fresh = engine.solve(&g).fresh_alloc_bytes;
            assert_eq!(engine.solve(&g).num_bcc, 1);
            // Pre-sizing must eliminate the bulk of first-solve growth
            // (only the O(√n) sample tables may still size themselves).
            assert!(
                presized_fresh < cold_fresh / 4,
                "pre-sized first solve still grew {presized_fresh} of {cold_fresh} bytes"
            );
        });
    }

    #[test]
    fn both_schemes_work_through_engine() {
        for scheme in [CcScheme::LddUfJtb, CcScheme::UfAsync] {
            let mut engine = BccEngine::new(BccOpts {
                scheme,
                ..Default::default()
            });
            assert_eq!(engine.solve(&windmill(5)).num_bcc, 5);
            assert_eq!(engine.solve(&barbell(4, 2)).num_bcc, 4);
        }
    }
}
