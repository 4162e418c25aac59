//! The scratch-pooled BCC engine.
//!
//! **Which path runs.** [`BccEngine::solve`], [`BccEngine::solve_view`],
//! [`BccEngine::attach`] and `apply_batch`'s fallback solves dispatch on
//! the thread budget, with no flag: up to [`DFS_MAX_BUDGET`] workers
//! (`fastbcc_primitives::num_threads() <= 2`) they run one iterative DFS
//! ([`crate::dfs`]), which measured faster there than the pipeline's
//! span; above it they run the four-phase FAST-BCC pipeline (paper
//! Alg. 1). Both write the same [`BccResult`] representation.
//! [`BccEngine::solve_fast_bcc`] and [`crate::fast_bcc`] always run the
//! pipeline, which is what the paper's experiments measure.
//! `apply_batch`'s region repairs run the DFS at every budget, restricted
//! to the region and in place on the result
//! ([`crate::dfs::dfs_region_in`]).
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
//!   tagging `w1`/`w2` buffers (`crate::tags::TagScratch`), and the five
//!   tag arrays themselves, which both paths write and only the solve
//!   reads (see [`BccEngine::tags`]);
//! * the engine's result slot recycles the output arrays too (labels,
//!   heads and label counts);
//! * every solve writes only into those borrowed buffers (the DFS path
//!   uses the tag arrays, the result slot, and its own stack and
//!   pre-order). The first solve sizes everything; subsequent solves
//!   on same-shaped inputs perform **zero** major-array allocations, which
//!   the [`SpaceTracker`] inside the workspace verifies: its `fresh()`
//!   counter tallies capacity growth per solve and lands on 0 for a
//!   repeated input (reported per run as
//!   [`BccResult::fresh_alloc_bytes`]).
//!
//! `fresh()` does **not** count transient allocations: the tagging
//! sparse tables (freed before Last-CC, exactly as the one-shot flow
//! accounts them), the forest-adjacency atomic cursor array, and the
//! per-call block tables inside the primitives (block bounds, pack
//! offsets, scan block sums, counting-sort histograms and cursors, the
//! radix-sort ping-pong passes on huge key spaces). Measured with a
//! counting allocator on the calling thread, a warm pipeline solve makes
//! 709 heap allocations on `rmat(14, 60000, 3)` and 631 on
//! `path(100000)` at budget 1 (exact, repeated run over run; pinned by
//! `tests/warm_alloc_count.rs`), and 1,257 on `rmat(18, 4M, 3)` at
//! budget 1, about 2,800 at budget 2. A warm DFS solve makes none.
//! `fresh()` answers the narrower question the zero-allocation gate
//! poses: did any *pooled* buffer (the major arrays listed above) have to
//! grow this solve. The frontier machinery
//! (per-round frontier double-buffer, start-round grouping, and the
//! shared pre-counted edgeMap claim buffer with its dense bitmaps) *is*
//! pooled: those buffers live in the scratches, are reserved to bounds
//! deterministic in `(n, m)` alone — nothing scales with the worker
//! ceiling anymore — and are counted by `heap_bytes()`, which is why
//! `fresh() == 0` holds on warm solves at any thread budget.

use crate::algo::{assign_heads_in, BccOpts, BccResult, Breakdown, CcScheme};
use crate::dfs::{dfs_tags_in, label_sweep, DfsScratch};
use crate::space::SpaceTracker;
use crate::tags::{compute_tags_in, TagScratch, Tags};
use fastbcc_connectivity::cc::{ldd_uf_jtb_filtered_in, uf_async_filtered_in, CcScratch};
use fastbcc_connectivity::ldd::LddOpts;
use fastbcc_connectivity::spanning_forest::forest_adjacency_in;
use fastbcc_ett::{root_forest_in, EttScratch, RootedForest};
use fastbcc_graph::{Graph, GraphView, NONE, V};
use std::time::Instant;

/// Every reusable per-phase buffer of one solve (either path), sized
/// lazily on first use and pooled across solves. The DFS stack and
/// pre-order also carry `apply_batch`'s region repairs, which `attach`
/// sizes for a region even when the full solve runs the pipeline.
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
    /// The spanning-forest tags of the most recent solve, or of the most
    /// recent region repair at the region's members.
    pub(crate) tags: Tags,
    /// Stack and pre-order of the DFS solve, also used by the
    /// batch-dynamic layer's region repairs.
    pub(crate) dfs: DfsScratch,
    /// Live/peak/fresh auxiliary-space accounting for the current solve.
    space: SpaceTracker,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
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
            + self.tags.heap_bytes()
            + self.dfs.heap_bytes()
    }
}

/// Heap bytes reserved by the recycled result arrays.
pub(crate) fn result_heap_bytes(r: &BccResult) -> usize {
    4 * (r.labels.capacity() + r.head.capacity() + r.label_count.capacity())
}

/// A reusable BCC solver: one [`Workspace`] plus a recycled result slot.
/// Construct once, call [`solve`](Self::solve) per graph.
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
    pub(crate) ws: Workspace,
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

    /// The options every solve runs with.
    pub fn opts(&self) -> BccOpts {
        self.opts
    }

    /// The pooled workspace (for space inspection).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// The spanning-forest tags the most recent full solve computed
    /// ([`solve`](Self::solve), [`solve_view`](Self::solve_view),
    /// [`solve_fast_bcc`](Self::solve_fast_bcc), [`attach`](Self::attach)).
    /// They are solver scratch, not part of the [`BccResult`]:
    /// [`apply_batch`](Self::apply_batch) maintains only `labels`, `head`
    /// and `label_count`, and leaves these as they are outside the regions
    /// it re-solves.
    pub fn tags(&self) -> &Tags {
        &self.ws.tags
    }

    /// Run the FAST-BCC pipeline and move the result out, consuming the
    /// engine — the one-shot path behind [`crate::fast_bcc`].
    pub fn solve_into(mut self, g: &Graph) -> BccResult {
        self.run(g, Path::FastBcc);
        self.result
    }

    /// Build a [`crate::query::BccIndex`] over the most recent solve (the
    /// build-then-serve flow: `solve` once per graph version, `build_index`
    /// once, answer query traffic from the index — it owns copies of the
    /// arrays it needs, so it stays valid across later re-solves).
    pub fn build_index(&self) -> crate::query::BccIndex {
        crate::query::BccIndex::new(&self.result)
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

    /// Solve `g`, reusing every pooled buffer: the DFS solve
    /// ([`crate::dfs`]) when the thread budget is at most
    /// [`DFS_MAX_BUDGET`], the FAST-BCC pipeline otherwise. The returned
    /// reference is valid until the next `solve`; clone fields out if you
    /// need them to outlive it.
    pub fn solve(&mut self, g: &Graph) -> &BccResult {
        self.run(g, Path::for_budget())
    }

    /// [`solve`](Self::solve) on any [`GraphView`] backend — a flat
    /// [`Graph`], a [`fastbcc_graph::CompressedGraph`], or an mmap-backed
    /// [`fastbcc_graph::MappedGraph`] variant — with the same dispatch
    /// and the same pooled buffers. Compressed and mapped backends are
    /// decoded per-block inside the traversal hot loops; no flat neighbor
    /// arrays are ever materialized, so the auxiliary footprint stays
    /// `O(n)` regardless of backend.
    ///
    /// Because the engine does not own or copy the view, any previously
    /// [`attach`](Self::attach)ed batch-dynamic graph is **detached**:
    /// a later [`apply_batch`](Self::apply_batch) without a fresh
    /// `attach` panics instead of silently evolving a stale CSR.
    pub fn solve_view<G: GraphView>(&mut self, g: &G) -> &BccResult {
        self.dynamic.detach_graph();
        self.run(g, Path::for_budget())
    }

    /// Run the paper's four-phase FAST-BCC pipeline (First-CC, Rooting,
    /// Tagging, Last-CC) on any backend at every thread budget, 1
    /// included — what the paper's experiments measure. Detaches a
    /// batch-dynamic graph like [`solve_view`](Self::solve_view).
    pub fn solve_fast_bcc<G: GraphView>(&mut self, g: &G) -> &BccResult {
        self.dynamic.detach_graph();
        self.run(g, Path::FastBcc)
    }

    /// The engine's current result — whatever the most recent
    /// [`solve`](Self::solve), [`attach`](Self::attach), or
    /// [`apply_batch`](Self::apply_batch) produced (empty before the
    /// first solve). Lets dynamic callers re-read the maintained result
    /// without holding the mutable borrow those calls take.
    pub fn result(&self) -> &BccResult {
        &self.result
    }

    fn run<G: GraphView>(&mut self, g: &G, path: Path) -> &BccResult {
        let n = g.n();
        let heap_before = self.ws.heap_bytes() + result_heap_bytes(&self.result);
        self.ws.space.begin_solve();
        let res = &mut self.result;

        let (num_bcc, num_cc, breakdown) = if n == 0 {
            res.labels.clear();
            res.head.clear();
            res.label_count.clear();
            // Clear (don't replace) the tag arrays: replacing would drop
            // their pooled capacity and force the next non-empty solve to
            // reallocate all five.
            let t = &mut self.ws.tags;
            for a in [
                &mut t.parent,
                &mut t.first,
                &mut t.last,
                &mut t.low,
                &mut t.high,
            ] {
                a.clear();
            }
            (0, 0, Breakdown::default())
        } else {
            match path {
                Path::Dfs => dfs_solve(g, &mut self.ws, res),
                Path::FastBcc => fast_bcc_solve(g, self.opts, &mut self.ws, res),
            }
        };

        let ws = &mut self.ws;
        let heap_after = ws.heap_bytes() + result_heap_bytes(res);
        ws.space.note_fresh(heap_after.saturating_sub(heap_before));
        res.num_bcc = num_bcc;
        res.num_cc = num_cc;
        res.breakdown = breakdown;
        res.aux_peak_bytes = ws.space.peak();
        res.fresh_alloc_bytes = ws.space.fresh();
        res.arena_bytes = ws.cc.arena_bytes();
        &self.result
    }
}

/// Which solve [`BccEngine::run`] takes.
#[derive(Clone, Copy)]
enum Path {
    /// One iterative DFS ([`crate::dfs`]).
    Dfs,
    /// The four-phase FAST-BCC pipeline (paper Alg. 1).
    FastBcc,
}

/// The largest thread budget at which [`BccEngine::solve`] (and every
/// call that dispatches like it) runs the DFS instead of the pipeline.
///
/// Measured on a 2-vCPU host: the warm DFS at budget 1 beat the warm
/// pipeline at budget 2 on all 20 `table2 --scale 1` graphs (2.2× to 17×,
/// geomean 4.8×), and perfbench's `powerlaw` static phases at budget 2
/// took 0.18 s on the DFS against 0.47 s on the pipeline. Budgets above 2
/// are unmeasured, so they keep the pipeline.
pub const DFS_MAX_BUDGET: usize = 2;

impl Path {
    /// The DFS up to [`DFS_MAX_BUDGET`], the pipeline above it.
    fn for_budget() -> Self {
        if fastbcc_primitives::num_threads() <= DFS_MAX_BUDGET {
            Path::Dfs
        } else {
            Path::FastBcc
        }
    }
}

/// The DFS solve of a non-empty graph: traversal under
/// [`Breakdown::rooting`], the labelling sweep under
/// [`Breakdown::last_cc`]. Returns `(num_bcc, num_cc, breakdown)`.
fn dfs_solve<G: GraphView>(
    g: &G,
    ws: &mut Workspace,
    res: &mut BccResult,
) -> (usize, usize, Breakdown) {
    let t0 = Instant::now();
    let num_cc = dfs_tags_in(g, &mut ws.tags, &mut ws.dfs);
    let rooting = t0.elapsed();
    ws.space.alloc(ws.tags.bytes() + ws.dfs.heap_bytes());

    let t1 = Instant::now();
    res.labels.clear();
    res.labels.resize(g.n(), 0);
    res.head.clear();
    res.head.resize(g.n(), NONE);
    res.label_count.clear();
    res.label_count.resize(g.n(), 0);
    let num_bcc = label_sweep(
        ws.dfs.order(),
        &ws.tags,
        &mut res.labels,
        &mut res.head,
        &mut res.label_count,
    );
    let last_cc = t1.elapsed();
    ws.space.alloc(12 * g.n());
    let breakdown = Breakdown {
        rooting,
        last_cc,
        ..Breakdown::default()
    };
    (num_bcc, num_cc, breakdown)
}

/// FAST-BCC (paper Alg. 1) on a non-empty graph, phase by phase into the
/// pooled buffers. Returns `(num_bcc, num_cc, breakdown)`.
fn fast_bcc_solve<G: GraphView>(
    g: &G,
    opts: BccOpts,
    ws: &mut Workspace,
    res: &mut BccResult,
) -> (usize, usize, Breakdown) {
    let n = g.n();
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
    let table_bytes = compute_tags_in(g, &ws.rf, &mut ws.tags, &mut ws.tag);
    let tagging = t2.elapsed();
    ws.space.alloc(ws.tags.bytes() + table_bytes);
    ws.space.free(table_bytes); // sparse tables freed inside compute_tags_in

    // ---- Step 4: Last-CC on the implicit skeleton -------------------
    let t3 = Instant::now();
    let tags = &ws.tags;
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

    let num_bcc = assign_heads_in(&res.labels, &ws.tags, &mut res.head, &mut res.label_count);
    let last_cc = t3.elapsed();
    ws.space.alloc(8 * n);

    (
        num_bcc,
        num_cc,
        Breakdown {
            first_cc,
            rooting,
            tagging,
            last_cc,
        },
    )
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
            let mut fresh = BccEngine::new(BccOpts::default());
            fresh.solve_fast_bcc(&g);
            let mut engine = BccEngine::new(BccOpts::default());
            // Solve a different graph in between to dirty the buffers.
            engine.solve_fast_bcc(&windmill(8));
            engine.solve_fast_bcc(&g);
            let (r, baseline) = (engine.result(), fresh.result());
            assert_eq!(r.labels, baseline.labels);
            assert_eq!(r.head, baseline.head);
            assert_eq!(r.label_count, baseline.label_count);
            let (t, bt) = (engine.tags(), fresh.tags());
            assert_eq!(t.parent, bt.parent);
            assert_eq!(t.low, bt.low);
            assert_eq!(t.high, bt.high);
            assert_eq!(r.num_bcc, baseline.num_bcc);
        });
    }

    #[test]
    fn solve_takes_the_dfs_up_to_the_cut_over() {
        // The DFS reports no First-CC or tagging time; the pipeline
        // always spends some on a non-empty graph.
        let g = grid2d(30, 20, true);
        for budget in [1, DFS_MAX_BUDGET, DFS_MAX_BUDGET + 1] {
            let b = with_threads(budget, || {
                BccEngine::new(BccOpts::default()).solve(&g).breakdown
            });
            let dfs = b.first_cc.is_zero() && b.tagging.is_zero();
            assert_eq!(dfs, budget <= DFS_MAX_BUDGET, "budget {budget}: {b:?}");
        }
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
