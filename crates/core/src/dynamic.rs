//! Batch-dynamic BCC maintenance: [`BccEngine::apply_batch`].
//!
//! A full [`BccEngine::solve`] re-derives the spanning forest, tags and
//! labels from scratch (one DFS up to [`crate::engine::DFS_MAX_BUDGET`]
//! workers, the FAST-BCC pipeline above it; both set up the same
//! representation). When consecutive graph
//! versions differ by a small edge batch, almost all of that work re-derives
//! what is already known. `apply_batch` instead maintains the engine's
//! `O(n)` BCC representation — `labels`, `head` and `label_count`, and
//! nothing else — directly under the batch. Read without any spanning
//! tree, that representation is the rooted block–cut forest: a class is a
//! block minus its head, a class hangs under the class of its head, and
//! each component's root is a headless singleton class.
//!
//! * **Graph delta** — the CSR is updated in one pooled
//!   [`fastbcc_graph::delta::apply_delta`] pass that merges only the
//!   neighbour lists the batch touches and copies every untouched run of
//!   the old CSR as bytes; the superseded CSR is kept for the duration of
//!   the batch (deleted-but-unprocessed edges are still structurally
//!   present mid-batch) and then recycled.
//! * **Deletions** — a deletion is a bridge iff one endpoint `c` is a
//!   singleton class headed by the other; it is cut in `O(1)` (`c`'s class
//!   loses its head and becomes a root). Otherwise the block is read off
//!   `labels`/`head` (the endpoints share a class, or one heads the
//!   other's), and a deletion inside it first tries a *two vertex-disjoint
//!   paths* certificate (Menger, `k = 2`) inside the block. It is decided
//!   exactly by two searches, each run from both endpoints at once with
//!   the cheaper frontier expanded first: a BFS for a first path P1, then
//!   the augmenting search over P1's vertex-split residual graph, forward
//!   from one endpoint and backward from the other. If the block minus the
//!   edge still carries two internally disjoint paths between the
//!   endpoints it remains biconnected and **nothing changes at all**. If
//!   the certificate fails (the block splits), the side whose search ran
//!   out first is the split's end block at that endpoint, without the cut
//!   vertex `c` that closes it. A block of at most 4096 vertices
//!   (`SUB_CAP`) is then collected by a bounded BFS and re-solved whole,
//!   in place: the engine's own DFS, restricted to the members
//!   ([`crate::dfs::dfs_region_in`]), rooted at the block head, which keeps
//!   its class, then the DFS label sweep over the region's pre-order. A
//!   larger block is *peeled*: the exhausted side plus `c` is re-solved
//!   the same way rooted at `c`, the endpoint moves to `c`, and the
//!   residual search runs again on what is left of P1, until it passes. A
//!   peel costs its small side, never the giant block it leaves.
//! * **Insertions** — an edge inside one block is a no-op. Otherwise the
//!   two head chains are walked up to their first common block and every
//!   block strictly between merges (the classic block-cut-path contraction),
//!   implemented with a label DSU so a batch of insertions is near-linear.
//!   Only when both chains end at tree roots without meeting does the edge
//!   join two trees, so the link is decided after the walk: an endpoint
//!   that is itself a tree root hangs under the other endpoint in `O(1)`;
//!   otherwise one endpoint's whole component is re-solved with the same
//!   in-place region DFS and hung there.
//! * **Relabel** — a merge keeps the class with the most members as the
//!   representative and retires the others. At batch end each retired
//!   class is walked from its class id, entering over the union of the old
//!   and new adjacency only the vertices that still carry its label, and
//!   relabelled to its representative, which takes its count; a relabelled
//!   vertex is never entered again. A block minus its head stays connected,
//!   and the old adjacency keeps every edge this batch deleted, so the walk
//!   reaches every member. A merge thus costs its smaller sides, and a
//!   batch that merges nothing walks nothing.
//! * **Census** — `num_bcc` and `num_cc` are kept by before/after tallies
//!   over what each mechanism changes (a bridge cut, a link, a merge, a
//!   region re-solve, a re-root), so no pass over all `n` vertices runs.
//!
//! Anything outside the fast paths — a batch above 5% of the edge count,
//! a cross-component insertion no region re-root absorbs, a cap or budget
//! overrun, or a relabel walk that misses a member of its class — falls
//! back to a full warm `solve` on the already updated graph, so
//! `apply_batch` is *always* exact; the fallback reason is reported in
//! [`ApplyReport`] for operator visibility. The caps are the private
//! constants below; there are no tuning knobs.

use crate::algo::BccResult;
use crate::dfs::{dfs_region_in, label_sweep};
use crate::engine::{result_heap_bytes, BccEngine};
use fastbcc_graph::delta::{apply_delta, DeltaScratch, GraphDelta};
use fastbcc_graph::{Graph, NONE, V};

/// Batches larger than this fraction of the current edge count fall back
/// to a full solve (the crossover where re-deriving everything is cheaper
/// than per-event maintenance).
const MAX_CHURN_FRAC: f64 = 0.05;
/// Vertex-visit budget for each side of a disjoint-paths certificate's
/// searches (its residual search counts two states a vertex); also the
/// floor of the per-batch aggregate work budget `max(n + m, CERT_CAP)`.
const CERT_CAP: usize = 65536;
/// Maximum region size (vertices) a local re-solve may handle: a block
/// re-solved whole, a peeled side, or a re-rooted component.
const SUB_CAP: usize = 4096;
/// Arc-scan budget while collecting a region (guards high-degree heads).
const SUB_ARC_CAP: usize = 65536;
/// Maximum combined head-chain length walked per insertion.
const CHAIN_CAP: usize = 512;

/// What the last [`BccEngine::apply_batch`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApplyReport {
    /// True when the batch was absorbed incrementally; false when it fell
    /// back to a full solve.
    pub incremental: bool,
    /// Why the batch fell back (`None` on the incremental path).
    pub fallback: Option<&'static str>,
    /// Normalized insertions / deletions actually applied to the graph.
    pub adds: usize,
    /// Normalized deletions applied.
    pub dels: usize,
    /// Deletions absorbed in `O(1)` as bridge cuts.
    pub dels_bridge: usize,
    /// Deletions proven label-preserving by the disjoint-paths certificate.
    pub dels_cert_pass: usize,
    /// Deletions that split their block, resolved by anchored region
    /// re-solves: the whole block, or one or more peeled end blocks.
    pub dels_sub_solve: usize,
    /// Deletions that were already covered by an earlier region re-solve.
    pub dels_skipped: usize,
    /// Insertions that landed inside an existing block.
    pub adds_noop: usize,
    /// Insertions that merged blocks along a block-cut path.
    pub adds_merged: usize,
    /// Insertions that linked two trees in `O(1)` (one endpoint was a
    /// tree root — e.g. an isolated vertex — hung under the other).
    pub adds_linked: usize,
    /// Cross-tree insertions absorbed by a region re-root: one endpoint's
    /// whole component re-solved locally and hung under the other.
    pub adds_rerooted: usize,
    /// Vertices the batch-end walks relabelled: the members of every class
    /// a merge retired (0 when the batch merged nothing).
    pub rehang_vertices: usize,
}

/// Per-engine batch-dynamic state. Everything is pooled and era-stamped so
/// a warm batch performs no clearing passes and no allocations.
#[derive(Default)]
pub struct DynState {
    // Churn gate as a fraction of `m`; `None` is [`MAX_CHURN_FRAC`]. Only
    // this module's tests override it.
    churn_frac: Option<f64>,
    // A split block of more vertices than this (class plus head) is peeled
    // rather than re-solved whole; `None` is [`SUB_CAP`]. Only this
    // module's tests lower it, so that small graphs take the peel.
    peel_above: Option<usize>,
    graph: Option<Graph>,
    delta: GraphDelta,
    delta_scratch: DeltaScratch,
    report: Option<ApplyReport>,
    // Label DSU (identity outside a batch). `retired` lists the classes
    // merges retired into a representative; the batch-end walks relabel
    // exactly these, and resetting their entries undoes the unions.
    dsu: Vec<u32>,
    retired: Vec<u32>,
    // Era-stamped scratch. Every walk but the relabel stamps `mark` with
    // fresh eras from `next_eras`, the one counter: each side of the
    // certificate's first-path BFS and then the path P1 itself (era `p1`),
    // each side of a chain walk (indexed by label), each side of a flood,
    // a region. Each side of the residual search stamps `state_mark` with
    // an era of its own. Two-sided searches share one queue.
    era: u32,
    p1: u32,
    mark: Vec<u32>,       // n
    queue: Vec<V>,        // first-path BFS, floods, region members, relabel walks
    bfs_parent: Vec<V>,   // n: BFS parent, so a P1 vertex's predecessor
    state_mark: Vec<u32>, // 2n: residual-search states
    state_queue: Vec<u32>,
    // Remaining aggregate incremental work (certificate visits, region
    // vertices/arcs) for the current batch; exhaustion => FB_BUDGET.
    work_budget: usize,
    // The two head chains of one insertion, as (label, entry vertex).
    chains: [Vec<(u32, V)>; 2],
}

/// [`ApplyReport::fallback`] reason: the batch exceeded 5% of the edge
/// count.
pub const FB_CHURN: &str = "churn";
/// [`ApplyReport::fallback`] reason: an insertion joined two connected
/// components (the block-cut chain walk found no common block).
pub const FB_CROSS: &str = "cross_component";
/// [`ApplyReport::fallback`] reason: a block-cut chain walk exceeded
/// 512 blocks.
pub const FB_CHAIN: &str = "chain_cap";
/// [`ApplyReport::fallback`] reason: a block split that no region re-solve
/// could take. A block of at most 4096 vertices exceeded 65536 scanned arcs
/// (or had no anchor). For a larger block, both certificate sides hit
/// their caps, neither end of the split could be peeled (its side exceeded
/// 4096 vertices or held the block's head or class id), or another
/// deleted edge joined a peeled side to the rest of the block.
pub const FB_REGION: &str = "region_cap";
/// [`ApplyReport::fallback`] reason: a retired class's relabel walk did
/// not reach every member of the class.
pub const FB_REHANG: &str = "rehang_incomplete";
/// [`ApplyReport::fallback`] reason: the batch's aggregate incremental
/// work (certificates, region re-solves, region re-roots) exhausted the
/// per-batch work budget — a round this expensive cannot beat the full
/// solve it is racing, so it stops paying twice and takes it directly.
pub const FB_BUDGET: &str = "work_budget";

/// Every [`ApplyReport::fallback`] reason, for exhaustive stats mapping.
pub const FALLBACK_REASONS: [&str; 6] = [
    FB_CHURN, FB_CROSS, FB_CHAIN, FB_REGION, FB_REHANG, FB_BUDGET,
];

impl DynState {
    /// Drop the attached graph (if any), returning it. The engine's
    /// view-generic solve path calls this: after solving a graph the
    /// engine does not own, keeping a stale attached CSR around would let
    /// [`BccEngine::apply_batch`] silently evolve the *wrong* graph —
    /// detaching instead makes the next `apply_batch` panic with its
    /// "requires a prior attach()" message.
    pub(crate) fn detach_graph(&mut self) -> Option<Graph> {
        self.graph.take()
    }

    fn reset_for(&mut self, n: usize) {
        self.dsu.clear();
        self.dsu.extend(0..n as u32);
        self.retired.clear();
        self.retired.reserve(n);
        self.era = 0;
        self.p1 = 0;
        self.mark.clear();
        self.mark.resize(n, 0);
        self.bfs_parent.clear();
        self.bfs_parent.resize(n, NONE);
        self.state_mark.clear();
        self.state_mark.resize(2 * n, 0);
        self.queue.clear();
        self.queue.reserve(n);
        self.state_queue.clear();
        self.state_queue.reserve(2 * n);
        for c in &mut self.chains {
            c.clear();
            c.reserve(CHAIN_CAP + 1);
        }
        self.report = None;
    }

    /// A fresh era for `mark` and `state_mark`.
    fn next_era(&mut self) -> u32 {
        self.next_eras::<1>()[0]
    }

    /// `K` consecutive fresh eras for `mark` and `state_mark`. Stamps start
    /// at 0, so before the counter would wrap back to 0 both arrays are
    /// cleared and the count restarts at 1; all `K` eras postdate the
    /// clear.
    fn next_eras<const K: usize>(&mut self) -> [u32; K] {
        if self.era > u32::MAX - K as u32 {
            self.mark.fill(0);
            self.state_mark.fill(0);
            self.era = 0;
        }
        self.era += K as u32;
        std::array::from_fn(|i| self.era - (K - 1 - i) as u32)
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.dsu[x as usize] != x {
            let gp = self.dsu[self.dsu[x as usize] as usize];
            self.dsu[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn heap_bytes(&self) -> usize {
        let vb = |c: usize| c * 4;
        self.graph.as_ref().map_or(0, |g| g.capacity_bytes())
            + (self.delta.adds.capacity() + self.delta.dels.capacity()) * 8
            + self.delta_scratch.heap_bytes()
            + vb(self.dsu.capacity())
            + vb(self.retired.capacity())
            + vb(self.mark.capacity())
            + vb(self.queue.capacity())
            + vb(self.bfs_parent.capacity())
            + vb(self.state_mark.capacity())
            + vb(self.state_queue.capacity())
            + (self.chains[0].capacity() + self.chains[1].capacity()) * 8
    }

    /// Collect a region by breadth-first search over the union of
    /// `graphs`' adjacency, through the vertices `accept` admits: from
    /// `starts[0]` alone, or from both `starts` at once, a level at a time,
    /// the side with the cheaper frontier first (see [`Sides`]), where a
    /// side never enters the other side's start from its own start (the
    /// edge that would join them) and reaching anything else the other side
    /// holds ends both. The first side whose flood closes within
    /// [`SUB_CAP`] vertices and [`SUB_ARC_CAP`] scanned arcs wins: its
    /// vertices, its start first, are left in `queue`, marked with the
    /// returned era, and its side index and scanned arcs come with it.
    /// Returns `None` when the floods meet or every side passes a cap. Work
    /// that no region re-solve pays for is charged to the batch work budget
    /// here.
    fn flood(
        &mut self,
        graphs: &[&Graph],
        starts: &[V],
        accept: impl Fn(V) -> bool,
    ) -> Option<(usize, u32, usize)> {
        let eras = self.next_eras::<2>();
        let degree = |w: V| graphs.iter().map(|g| g.degree(w)).sum::<usize>();
        self.queue.clear();
        let mut cost = [0; 2];
        for (s, &w) in starts.iter().enumerate() {
            self.queue.push(w);
            self.mark[w as usize] = eras[s];
            cost[s] = degree(w);
        }
        let mut sides = Sides::new(cost, [true, starts.len() == 2], SUB_CAP, SUB_ARC_CAP);
        let won = 'search: loop {
            let s = match sides.step() {
                Step::Expand(s) => s,
                Step::Exhausted(s) => break Some(s),
                Step::Capped => break None,
            };
            let start = self.queue.len();
            for qi in sides.lo[s]..sides.hi[s] {
                let a = self.queue[qi];
                for g in graphs {
                    for &w in g.neighbors(a) {
                        let m = self.mark[w as usize];
                        if m == eras[s ^ 1] {
                            if a == starts[s] && w == starts[s ^ 1] {
                                continue;
                            }
                            break 'search None;
                        }
                        if m != eras[s] && accept(w) {
                            self.mark[w as usize] = eras[s];
                            self.queue.push(w);
                        }
                    }
                }
            }
            let cost = self.queue[start..].iter().map(|&w| degree(w)).sum();
            sides.advance(s, start, self.queue.len(), cost);
        };
        let wasted = |s: usize| sides.seen[s] + sides.arcs[s];
        let Some(s) = won else {
            self.work_budget = self.work_budget.saturating_sub(wasted(0) + wasted(1));
            return None;
        };
        if starts.len() == 2 {
            self.work_budget = self.work_budget.saturating_sub(wasted(s ^ 1));
            let mark = &self.mark;
            self.queue.retain(|&w| mark[w as usize] == eras[s]);
        }
        Some((s, eras[s], sides.arcs[s]))
    }

    /// Exact Menger `k = 2` test inside one block (the vertices `in_block`
    /// admits): are there two internally vertex-disjoint `u`–`v` paths in
    /// `g`? Two common neighbours decide it at once; otherwise
    /// [`first_path`](Self::first_path) finds the flow's first unit and
    /// [`residual`](Self::residual) looks for the second.
    fn cert_two_disjoint(&mut self, g: &Graph, u: V, v: V, in_block: impl Fn(V) -> bool) -> Cert {
        // Fast path: two common neighbors are two internally vertex-disjoint
        // u→v paths outright (Menger, k = 2, sufficiency), and a cycle
        // through u and v lies inside their block. Adjacency is sorted, so
        // one merge pass over the two lists decides it — this settles
        // almost every deletion inside a dense block without touching the
        // searches below, and is free of budget charge.
        {
            let (mut a, mut b) = (g.neighbors(u), g.neighbors(v));
            let mut common = 0usize;
            while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
                match x.cmp(&y) {
                    std::cmp::Ordering::Less => a = &a[1..],
                    std::cmp::Ordering::Greater => b = &b[1..],
                    std::cmp::Ordering::Equal => {
                        common += 1;
                        if common >= 2 {
                            return Cert::Pass;
                        }
                        a = &a[1..];
                        b = &b[1..];
                    }
                }
            }
        }
        if !self.first_path(g, u, v, &in_block) {
            return Cert::Unknown;
        }
        self.residual(g, [u, v], [true; 2], &in_block)
    }

    /// P1, the flow's first unit: an `x`–`y` path inside the block, by
    /// breadth-first search from both ends at once, the cheaper frontier
    /// first, each side capped at [`CERT_CAP`] (and the batch work budget)
    /// visits. On success `bfs_parent` leads from `y` back to `x` along it
    /// and [`stamp_p1`](Self::stamp_p1) has marked it. False when the
    /// block holds no such path or both sides ran out.
    fn first_path(&mut self, g: &Graph, x: V, y: V, in_block: impl Fn(V) -> bool) -> bool {
        let cap = CERT_CAP.min(self.work_budget);
        let eras = self.next_eras::<2>();
        self.queue.clear();
        self.queue.extend([x, y]);
        self.mark[x as usize] = eras[0];
        self.mark[y as usize] = eras[1];
        let mut sides = Sides::new([g.degree(x), g.degree(y)], [true; 2], cap, usize::MAX);
        // Each side's BFS parents lead back to its own start; the meeting
        // edge is returned as (side-0 end, side-1 end).
        let meet = 'search: loop {
            let Step::Expand(s) = sides.step() else {
                break None;
            };
            let start = self.queue.len();
            for qi in sides.lo[s]..sides.hi[s] {
                let a = self.queue[qi];
                for &w in g.neighbors(a) {
                    let m = self.mark[w as usize];
                    if m == eras[s ^ 1] {
                        break 'search Some(if s == 0 { (a, w) } else { (w, a) });
                    }
                    if m != eras[s] && in_block(w) {
                        self.mark[w as usize] = eras[s];
                        self.bfs_parent[w as usize] = a;
                        self.queue.push(w);
                    }
                }
            }
            let cost = self.queue[start..].iter().map(|&w| g.degree(w)).sum();
            sides.advance(s, start, self.queue.len(), cost);
        };
        self.work_budget = self.work_budget.saturating_sub(self.queue.len());
        let Some((mut prev, mut cur)) = meet else {
            return false;
        };
        // Side 1's parents lead from the meeting point to `y`; turn them
        // round, so every P1 vertex's parent is its predecessor from `x`.
        loop {
            let next = self.bfs_parent[cur as usize];
            self.bfs_parent[cur as usize] = prev;
            if cur == y {
                break;
            }
            (prev, cur) = (cur, next);
        }
        self.stamp_p1([x, y]);
        true
    }

    /// Mark P1, the path `bfs_parent` leads along from `ends[1]` back to
    /// `ends[0]`, with a fresh era, kept in `p1`.
    fn stamp_p1(&mut self, [x, y]: [V; 2]) {
        let p1 = self.next_era();
        self.p1 = p1;
        let mut cur = y;
        self.mark[y as usize] = p1;
        while cur != x {
            cur = self.bfs_parent[cur as usize];
            self.mark[cur as usize] = p1;
        }
    }

    /// The augmenting search for the second unit of flow over the
    /// vertex-split residual graph of P1 inside the block, where P1 is the
    /// path marked `p1` that `bfs_parent` leads along from `y` back to `x`.
    /// Adjacent ends pass outright. Otherwise the ends that `live` names
    /// search at once, the cheaper frontier first: forward from `x_out`,
    /// backward from `y_in` over the reversed residual graph, each side
    /// capped at `2 ·` [`CERT_CAP`] states. A meeting is an augmenting path
    /// ([`Cert::Pass`]); a side that runs out first proves there is none,
    /// and its states are the split block's end on that side
    /// ([`Cert::Split`]).
    ///
    /// States are `2w` (w_in) and `2w + 1` (w_out). Internal P1 vertices
    /// have their in→out arc saturated, and P1's edge arcs are traversable
    /// only backward.
    fn residual(
        &mut self,
        g: &Graph,
        [x, y]: [V; 2],
        live: [bool; 2],
        in_block: impl Fn(V) -> bool,
    ) -> Cert {
        if g.has_edge(x, y) {
            return Cert::Pass;
        }
        let cap = 2 * CERT_CAP.min(self.work_budget);
        let eras = self.next_eras::<2>();
        if eras[0] <= self.p1 {
            // The eras wrapped, and the clear took P1's marks with it.
            self.stamp_p1([x, y]);
        }
        let p1 = self.p1;
        // `bfs_parent` of a P1 vertex other than `x` is its predecessor, so
        // `a → z` is a P1 arc iff `z != x` is on P1 with `bfs_parent[z] == a`.
        let on_p1 = |s: &Self, w: V| s.mark[w as usize] == p1;
        let internal = |s: &Self, w: V| w != x && w != y && on_p1(s, w);
        let p1_arc = |s: &Self, a: V, z: V| z != x && on_p1(s, z) && s.bfs_parent[z as usize] == a;

        self.state_queue.clear();
        self.state_queue.extend([2 * x + 1, 2 * y]);
        self.state_mark[(2 * x + 1) as usize] = eras[0];
        self.state_mark[(2 * y) as usize] = eras[1];
        let mut sides = Sides::new([g.degree(x), g.degree(y)], live, cap, usize::MAX);
        let cert = 'search: loop {
            let s = match sides.step() {
                Step::Expand(s) => s,
                Step::Exhausted(side) => {
                    break Cert::Split {
                        side,
                        era: eras[side],
                    }
                }
                Step::Capped => break Cert::Unknown,
            };
            // Stamp state `t` for side `s`; true when the other side holds it.
            let reach = |dy: &mut Self, t: u32| {
                let m = dy.state_mark[t as usize];
                if m != eras[s] && m != eras[s ^ 1] {
                    dy.state_mark[t as usize] = eras[s];
                    dy.state_queue.push(t);
                }
                m == eras[s ^ 1]
            };
            let start = self.state_queue.len();
            for qi in sides.lo[s]..sides.hi[s] {
                let t = self.state_queue[qi];
                let w = t / 2;
                let met = match (s, t & 1) {
                    // Forward from w_out: the saturated vertex arc backward,
                    // and every edge arc P1 does not use.
                    (0, 1) => {
                        (internal(self, w) && reach(self, 2 * w))
                            || g.neighbors(w)
                                .iter()
                                .any(|&z| in_block(z) && !p1_arc(self, w, z) && reach(self, 2 * z))
                    }
                    // Forward from w_in: the vertex arc when unsaturated,
                    // else P1's edge arc into w backward.
                    (0, _) if internal(self, w) => {
                        let pred = self.bfs_parent[w as usize];
                        reach(self, 2 * pred + 1)
                    }
                    (0, _) => reach(self, 2 * w + 1),
                    // Backward into w_in: the saturated vertex arc's
                    // residual, and every edge arc P1 does not use.
                    (_, 0) => {
                        (internal(self, w) && reach(self, 2 * w + 1))
                            || g.neighbors(w).iter().any(|&z| {
                                in_block(z) && !p1_arc(self, z, w) && reach(self, 2 * z + 1)
                            })
                    }
                    // Backward into w_out: the unsaturated vertex arc, and
                    // the residual of P1's edge arc out of w.
                    _ => {
                        (!internal(self, w) && reach(self, 2 * w))
                            || (on_p1(self, w) && w != y && {
                                let next = g.neighbors(w).iter().find(|&&z| p1_arc(self, w, z));
                                reach(self, 2 * *next.expect("P1 continues past w"))
                            })
                    }
                };
                if met {
                    break 'search Cert::Pass;
                }
            }
            let cost = self.state_queue[start..]
                .iter()
                .map(|&t| g.degree(t / 2))
                .sum();
            sides.advance(s, start, self.state_queue.len(), cost);
        };
        let spent = self.state_queue.len() / 2;
        self.work_budget = self.work_budget.saturating_sub(spent.max(1));
        cert
    }

    /// After [`Cert::Split`] for `ends`: the cut vertex `c` that closes the
    /// exhausted side's end block, and that side's vertices, the component
    /// of its end once `c` is removed. Leaves `[c, side...]` in `queue` and
    /// returns false, with `queue` unfinished, once the side passes
    /// [`SUB_CAP`] vertices or holds a vertex `keep` rejects. Costs no more
    /// than the search that exhausted the side.
    fn gather_side(
        &mut self,
        g: &Graph,
        ends: [V; 2],
        side: usize,
        era: u32,
        keep: impl Fn(V) -> bool,
    ) -> bool {
        // The exhausted side holds a prefix of P1 from its own end (the
        // forward side by out-states, the backward side by in-states); `c`
        // is the first P1 vertex past it.
        let parity = (side == 0) as u32;
        let held = |dy: &Self, w: V| dy.state_mark[(2 * w + parity) as usize] == era;
        let mut c = ends[1];
        if side == 0 {
            // The one P1 successor of a held P1 vertex that is not held.
            let p1_next = |dy: &Self, w: V, z: V| {
                z != ends[0] && dy.mark[z as usize] == dy.p1 && dy.bfs_parent[z as usize] == w
            };
            for &t in &self.state_queue {
                let w = t / 2;
                if t & 1 == 1 && held(self, w) && self.mark[w as usize] == self.p1 {
                    if let Some(&z) = g.neighbors(w).iter().find(|&&z| p1_next(self, w, z)) {
                        if !held(self, z) {
                            c = z;
                            break;
                        }
                    }
                }
            }
        } else {
            while held(self, c) {
                c = self.bfs_parent[c as usize];
            }
        }
        self.queue.clear();
        self.queue.push(c);
        for i in 0..self.state_queue.len() {
            let t = self.state_queue[i];
            if t & 1 == parity && self.state_mark[t as usize] == era {
                if self.queue.len() > SUB_CAP || !keep(t / 2) {
                    return false;
                }
                self.queue.push(t / 2);
            }
        }
        true
    }
}

/// The vertices of block `l` when `h` heads it: its class plus `h`.
fn block_of(labels: &[u32], l: u32, h: V) -> impl Fn(V) -> bool + Copy + '_ {
    move |w| labels[w as usize] == l || w == h
}

/// Outcome of [`DynState::cert_two_disjoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cert {
    /// Two internally disjoint paths: the endpoints share a block.
    Pass,
    /// None: side `side`'s residual search (0 from the first end, 1 from
    /// the second) ran out first, and its states carry `era`.
    Split { side: usize, era: u32 },
    /// Undecided: no path inside the block, or both sides hit their caps.
    Unknown,
}

/// The frontiers of two breadth-first searches that share one append-only
/// queue and expand a level at a time, the side with the cheaper frontier
/// first, so the search that stops first is the one on the small side.
/// Side `s`'s frontier is `queue[lo[s]..hi[s]]` and scans about `cost[s]`
/// arcs; `seen[s]` counts its entries and `arcs[s]` the arcs it scanned. A
/// side stops, no longer live, past `max_seen` entries, or when its next
/// level would take its scanned arcs past `max_arcs`.
struct Sides {
    lo: [usize; 2],
    hi: [usize; 2],
    cost: [usize; 2],
    seen: [usize; 2],
    arcs: [usize; 2],
    live: [bool; 2],
    max_seen: usize,
    max_arcs: usize,
}

/// What [`Sides::step`] asks of its search next.
enum Step {
    /// Expand this side's frontier.
    Expand(usize),
    /// This side's search is complete: its frontier is empty.
    Exhausted(usize),
    /// Every side passed its caps.
    Capped,
}

impl Sides {
    /// Side 0 starts at `queue[0]`, side 1 at `queue[1]`; only the sides
    /// `live` names search.
    fn new(cost: [usize; 2], live: [bool; 2], max_seen: usize, max_arcs: usize) -> Self {
        Sides {
            lo: [0, 1],
            hi: [1, 2],
            cost,
            seen: [1; 2],
            arcs: [0; 2],
            live: [0, 1].map(|s| live[s] && cost[s] <= max_arcs),
            max_seen,
            max_arcs,
        }
    }

    fn step(&self) -> Step {
        if let Some(s) = (0..2).find(|&s| self.live[s] && self.lo[s] == self.hi[s]) {
            return Step::Exhausted(s);
        }
        match self.live {
            [false, false] => Step::Capped,
            [true, true] => Step::Expand((self.cost[1] < self.cost[0]) as usize),
            [_, one] => Step::Expand(one as usize),
        }
    }

    /// Side `s` expanded its frontier into `queue[start..end]`, a level
    /// that scans about `cost` arcs.
    fn advance(&mut self, s: usize, start: usize, end: usize, cost: usize) {
        self.arcs[s] += self.cost[s];
        (self.lo[s], self.hi[s], self.cost[s]) = (start, end, cost);
        self.seen[s] += end - start;
        if self.seen[s] > self.max_seen || self.arcs[s] + cost > self.max_arcs {
            self.live[s] = false;
        }
    }
}

impl BccEngine {
    /// Attach `g` as the engine's maintained graph and solve it fully.
    /// Subsequent [`apply_batch`](Self::apply_batch) calls evolve this
    /// graph in place. Sizes every batch-dynamic buffer, the DFS scratch
    /// of region repairs included, so warm incremental batches report
    /// `fresh_alloc_bytes == 0`.
    pub fn attach(&mut self, g: &Graph) -> &BccResult {
        let n = g.n();
        // The certificate's residual search numbers vertex `w`'s states
        // `2w` and `2w + 1` in a `u32`.
        assert!(
            n <= 1 << 31,
            "apply_batch maintains at most 2^31 vertices: the certificate's \
             residual states 2w + 1 are u32"
        );
        self.dynamic.reset_for(n);
        // Re-attaching reuses the previous graph's CSR buffers (a serving
        // rebuilder attaches on every full rebuild; warm re-attaches of a
        // same-sized graph must not allocate).
        self.dynamic.graph = Some(match self.dynamic.graph.take() {
            Some(old) => {
                let (mut offsets, mut arcs) = old.into_raw_parts();
                offsets.clear();
                offsets.extend_from_slice(g.offsets());
                arcs.clear();
                arcs.extend_from_slice(g.arcs());
                Graph::from_raw_parts(offsets, arcs)
            }
            None => g.clone(),
        });
        // A region holds at most `SUB_CAP` members; a DFS solve below
        // grows the scratch to `n`, a pipeline solve leaves it as it is.
        self.ws.dfs.reserve(SUB_CAP.min(n) + 1);
        self.solve(g)
    }

    /// The graph the engine currently maintains (set by
    /// [`attach`](Self::attach), evolved by [`apply_batch`](Self::apply_batch)).
    pub fn graph(&self) -> Option<&Graph> {
        self.dynamic.graph.as_ref()
    }

    /// What the most recent [`apply_batch`](Self::apply_batch) did.
    pub fn last_apply_report(&self) -> Option<ApplyReport> {
        self.dynamic.report
    }

    /// Apply an undirected edge batch to the attached graph and bring the
    /// BCC result up to date, incrementally when the batch allows it (see
    /// the [module docs](crate::dynamic)). Insertions of present edges and
    /// deletions of absent ones are ignored. Panics if no graph is
    /// attached. Returns the updated result; query the taken path via
    /// [`last_apply_report`](Self::last_apply_report).
    pub fn apply_batch(&mut self, adds: &[(V, V)], dels: &[(V, V)]) -> &BccResult {
        let old = self
            .dynamic
            .graph
            .take()
            .expect("apply_batch requires a prior attach()");
        let n = old.n();
        let heap_before = self.workspace().heap_bytes()
            + result_heap_bytes(&self.result)
            + self.dynamic.heap_bytes()
            + old.capacity_bytes();

        // Normalize against the current graph: effective deletions are
        // present edges, effective insertions are absent non-loop pairs —
        // plus present pairs that this same batch also deletes, so a
        // delete-then-readd lands back at "edge present" (the
        // [`GraphDelta`] contract) instead of letting the delete win.
        let dy = &mut self.dynamic;
        dy.delta.adds.clear();
        dy.delta.dels.clear();
        for &(a, b) in dels {
            let (u, v) = (a.min(b), a.max(b));
            if u != v && (v as usize) < n && old.has_edge(u, v) {
                dy.delta.dels.push((u, v));
            }
        }
        dy.delta.dels.sort_unstable();
        dy.delta.dels.dedup();
        for &(a, b) in adds {
            let (u, v) = (a.min(b), a.max(b));
            if u != v
                && (v as usize) < n
                && (!old.has_edge(u, v) || dy.delta.dels.binary_search(&(u, v)).is_ok())
            {
                dy.delta.adds.push((u, v));
            }
        }
        dy.delta.adds.sort_unstable();
        dy.delta.adds.dedup();

        let mut report = ApplyReport {
            adds: dy.delta.adds.len(),
            dels: dy.delta.dels.len(),
            ..Default::default()
        };

        if dy.delta.is_empty() {
            self.dynamic.graph = Some(old);
            report.incremental = true;
            self.dynamic.report = Some(report);
            self.result.fresh_alloc_bytes = 0;
            return &self.result;
        }

        let new = {
            let dy = &mut self.dynamic;
            apply_delta(&old, &dy.delta, &mut dy.delta_scratch)
        };

        let churn_frac = self.dynamic.churn_frac.unwrap_or(MAX_CHURN_FRAC);
        let budget = ((old.m_undirected() as f64) * churn_frac).max(1.0);
        if (report.adds + report.dels) as f64 > budget {
            return self.fallback(old, new, report, FB_CHURN);
        }

        // Aggregate work budget for the whole batch — certificates,
        // region re-solves, and region re-roots all draw on it. Scaled
        // to one structural pass over the graph: generous enough that
        // cheap local repairs never notice it, but a round this machinery
        // cannot actually win stops paying twice (incremental attempt
        // plus the fallback solve) long before matching the full solve's
        // cost.
        self.dynamic.work_budget = (old.n() + old.m()).max(CERT_CAP);

        // ---- Deletions --------------------------------------------------
        for i in 0..self.dynamic.delta.dels.len() {
            if self.dynamic.work_budget == 0 {
                return self.fallback(old, new, report, FB_BUDGET);
            }
            let (u, v) = self.dynamic.delta.dels[i];
            let res = &mut self.result;
            let (lu, lv) = (res.labels[u as usize], res.labels[v as usize]);
            let singleton_under = |c: V, p: V| {
                let c = c as usize;
                res.labels[c] == c as u32 && res.label_count[c] == 1 && res.head[c] == p
            };
            let bridge_end = [(u, v), (v, u)]
                .into_iter()
                .find(|&(c, p)| singleton_under(c, p));
            if let Some((c, _)) = bridge_end {
                // Bridge: the singleton class becomes a root; no label
                // moves. One block fewer, one tree more.
                res.head[c as usize] = NONE;
                res.num_bcc -= 1;
                res.num_cc += 1;
                report.dels_bridge += 1;
                continue;
            }
            let region = if lu == lv || res.head[lu as usize] == v {
                lu
            } else if res.head[lv as usize] == u {
                lv
            } else {
                // An earlier region re-solve already separated the
                // endpoints; this deletion is structurally done.
                report.dels_skipped += 1;
                continue;
            };
            let in_block = block_of(
                &self.result.labels,
                region,
                self.result.head[region as usize],
            );
            let cert = self.dynamic.cert_two_disjoint(&new, u, v, in_block);
            if cert == Cert::Pass {
                // The block stays biconnected: nothing changes.
                report.dels_cert_pass += 1;
                continue;
            }
            // A block is its class plus its head: at most `SUB_CAP` vertices
            // are re-solved whole, a larger block is peeled.
            let peel_above = self.dynamic.peel_above.unwrap_or(SUB_CAP);
            let repaired = if (self.result.label_count[region as usize] as usize) < peel_above {
                self.sub_solve(&old, &new, region)
            } else {
                self.peel(&old, &new, region, [u, v], cert)
            };
            if !repaired {
                return self.fallback(old, new, report, FB_REGION);
            }
            report.dels_sub_solve += 1;
        }

        // ---- Insertions -------------------------------------------------
        for i in 0..self.dynamic.delta.adds.len() {
            if self.dynamic.work_budget == 0 {
                return self.fallback(old, new, report, FB_BUDGET);
            }
            let (u, v) = self.dynamic.delta.adds[i];
            let lu = self.dynamic.find(self.result.labels[u as usize]);
            let lv = self.dynamic.find(self.result.labels[v as usize]);
            if lu == lv || self.result.head[lu as usize] == v || self.result.head[lv as usize] == u
            {
                report.adds_noop += 1;
                continue;
            }
            match self.merge_path(u, lu, v, lv) {
                Ok(()) => report.adds_merged += 1,
                Err(FB_CROSS) => {
                    // The chains ended in two trees. An endpoint that is
                    // itself a tree root hangs directly under the other
                    // endpoint in O(1): the new edge is a bridge between
                    // them (the common shape for insertions touching
                    // isolated vertices).
                    let res = &mut self.result;
                    let is_root =
                        |x: V| res.labels[x as usize] == x && res.head[x as usize] == NONE;
                    let link = [(v, u), (u, v)].into_iter().find(|&(x, _)| is_root(x));
                    if let Some((root_end, anchor)) = link {
                        res.head[root_end as usize] = anchor;
                        res.num_bcc += 1;
                        res.num_cc -= 1;
                        report.adds_linked += 1;
                        continue;
                    }
                    // Otherwise one endpoint's whole component is
                    // re-solved locally and hung under the other, gated
                    // only by the region caps.
                    if !self.try_region_reroot(&new, [u, v]) {
                        return self.fallback(old, new, report, FB_CROSS);
                    }
                    report.adds_rerooted += 1;
                }
                Err(reason) => return self.fallback(old, new, report, reason),
            }
        }

        // ---- Relabel the retired classes ------------------------------
        match self.relabel_retired(&[&old, &new]) {
            Some(reached) => report.rehang_vertices = reached,
            None => return self.fallback(old, new, report, FB_REHANG),
        }

        self.dynamic.delta_scratch.recycle(old);
        self.dynamic.graph = Some(new);
        report.incremental = true;
        self.dynamic.report = Some(report);
        let heap_after = self.workspace().heap_bytes()
            + result_heap_bytes(&self.result)
            + self.dynamic.heap_bytes();
        self.result.fresh_alloc_bytes = heap_after.saturating_sub(heap_before);
        self.result.breakdown = Default::default();
        &self.result
    }

    /// Full warm re-solve of the already-updated graph; the exit ramp for
    /// every condition the incremental paths don't cover.
    fn fallback(
        &mut self,
        old: Graph,
        new: Graph,
        mut report: ApplyReport,
        reason: &'static str,
    ) -> &BccResult {
        {
            let dy = &mut self.dynamic;
            for &t in &dy.retired {
                dy.dsu[t as usize] = t;
            }
            dy.retired.clear();
            dy.delta_scratch.recycle(old);
        }
        self.solve(&new);
        self.dynamic.graph = Some(new);
        report.incremental = false;
        report.fallback = Some(reason);
        self.dynamic.report = Some(report);
        &self.result
    }

    /// Finish a batch's merges: walk each retired class from its class id,
    /// entering over the union of `graphs`' adjacency only the vertices
    /// that still carry its label, and relabel them to its representative,
    /// which takes its count; its head goes. A relabelled vertex carries
    /// another label, so no walk enters it twice. Resets the DSU. Returns
    /// the vertices relabelled, or `None` when a walk missed a member of
    /// its class.
    fn relabel_retired(&mut self, graphs: &[&Graph]) -> Option<usize> {
        let dy = &mut self.dynamic;
        let res = &mut self.result;
        let mut reached = Some(0);
        for i in 0..dy.retired.len() {
            let t = dy.retired[i];
            let r = dy.find(t);
            // A region re-root resets the DSU of what it re-solves, and a
            // class id retired twice was relabelled the first time.
            if r == t || res.labels[t as usize] != t {
                continue;
            }
            dy.queue.clear();
            dy.queue.push(t);
            res.labels[t as usize] = r;
            let mut qi = 0;
            while qi < dy.queue.len() {
                let x = dy.queue[qi];
                qi += 1;
                for g in graphs {
                    for &w in g.neighbors(x) {
                        if res.labels[w as usize] == t {
                            res.labels[w as usize] = r;
                            dy.queue.push(w);
                        }
                    }
                }
            }
            let k = std::mem::take(&mut res.label_count[t as usize]);
            if dy.queue.len() < k as usize {
                reached = None;
                break;
            }
            res.label_count[r as usize] += k;
            res.head[t as usize] = NONE;
            reached = reached.map(|s| s + dy.queue.len());
        }
        for &t in &dy.retired {
            dy.dsu[t as usize] = t;
        }
        dy.retired.clear();
        reached
    }

    /// Absorb a cross-tree insertion `(u, v)` by re-solving one endpoint's
    /// *entire* component locally, rooted at that endpoint (`root_end`),
    /// then hanging it under the other (`anchor`) as a fresh bridge,
    /// bounded by the component size.
    ///
    /// Both components are flooded at once over the *new* adjacency, the
    /// cheaper frontier first, and the side whose flood closes first is
    /// the one re-solved, so a giant component on one side costs about as
    /// much as the small one on the other. Each flood holds the other
    /// endpoint out, so a region is closed under every remaining batch
    /// insertion except edges incident to its anchor: the local solve
    /// computes end-of-batch labels for the region and later intra-region
    /// insertions degrade to no-ops. The rescue is abandoned when the
    /// floods meet or a flood reaches the other endpoint other than over
    /// `(u, v)` itself — a second tie means the new edge is not even a
    /// bridge, and splicing those vertices would corrupt the forest.
    /// Splicing overwrites `labels`/`head`/`label_count` for every member
    /// and resets their DSU entries (no live label outside the region can
    /// resolve to a class id inside it — classes never span components),
    /// so the rescue composes with earlier merges, region re-solves, and
    /// the pending relabel. Returns false, with the failed floods charged
    /// to the batch work budget, when both components exceed [`SUB_CAP`]
    /// vertices or [`SUB_ARC_CAP`] scanned arcs or the floods tie; the
    /// caller then falls back.
    fn try_region_reroot(&mut self, new: &Graph, ends: [V; 2]) -> bool {
        let Some((side, era, arcs_scanned)) = self.dynamic.flood(&[new], &ends, |_| true) else {
            return false;
        };
        let (root_end, anchor) = (ends[side], ends[side ^ 1]);
        // `anchor` is unmarked, so its arcs — including the one being
        // absorbed — stay out of the region search. Every member is
        // spliced: unlike the block-anchored sub-solve there is no
        // preserved boundary vertex. The local root's singleton class then
        // becomes the new bridge class.
        self.solve_region(new, era, arcs_scanned, 0);
        let res = &mut self.result;
        res.head[root_end as usize] = anchor;
        res.num_bcc += 1;
        res.num_cc -= 1;
        true
    }

    /// Merge every block strictly between `lu` and `lv`'s first common
    /// ancestor block on the block-cut path (plus the ancestor itself when
    /// the two chains enter it through different vertices), driven by the
    /// insertion `(u, v)`.
    fn merge_path(&mut self, u: V, lu: u32, v: V, lv: u32) -> Result<(), &'static str> {
        let dy = &mut self.dynamic;
        let res = &self.result;
        // One era per side.
        let eras = dy.next_eras::<2>();
        dy.chains[0].clear();
        dy.chains[1].clear();

        // Walk state per side: (current label, entry vertex, done).
        let mut cur = [(lu, u, false), (lv, v, false)];
        let mut side = 0usize;
        let mut steps = 0usize;
        let (d, entry_this) = loop {
            if cur[0].2 && cur[1].2 {
                return Err(FB_CROSS);
            }
            if cur[side].2 {
                side ^= 1;
            }
            steps += 1;
            if steps > CHAIN_CAP {
                return Err(FB_CHAIN);
            }
            let (l, entry, _) = cur[side];
            if dy.mark[l as usize] == eras[side ^ 1] {
                break (l, entry);
            }
            dy.mark[l as usize] = eras[side];
            dy.chains[side].push((l, entry));
            let h = res.head[l as usize];
            if h == NONE {
                cur[side].2 = true;
            } else {
                // The DSU indirection: head chains follow merged reps.
                let mut nl = res.labels[h as usize];
                while dy.dsu[nl as usize] != nl {
                    nl = dy.dsu[nl as usize];
                }
                cur[side] = (nl, h, false);
            }
            side ^= 1;
        };

        // `d` is on the other side's chain, at most `CHAIN_CAP` long.
        let (chain_this, chain_other) = (&dy.chains[side], &dy.chains[side ^ 1]);
        let pos_other = chain_other
            .iter()
            .rposition(|&(l, _)| l == d)
            .expect("the collision label is on the other chain");
        let include_d = entry_this != chain_other[pos_other].1;
        let new_head = if include_d {
            res.head[d as usize]
        } else {
            entry_this // == entry_other: the shared cut vertex
        };
        debug_assert_ne!(new_head, NONE, "merged block must keep a head");
        let merged = || {
            let d = include_d.then_some(d);
            let this = chain_this.iter().chain(&chain_other[..pos_other]);
            this.map(|&(l, _)| l).chain(d)
        };
        // `label_count` holds each class's own members until the batch-end
        // relabel folds it; the class with the most keeps its label, so
        // the walks cover only the smaller sides.
        let rep = merged()
            .max_by_key(|&l| res.label_count[l as usize])
            .expect("a merge joins at least two classes");

        // Every merged class is a headed block (a tree root's class never
        // merges), so each one retired is one block fewer.
        let res = &mut self.result;
        for l in merged().filter(|&l| l != rep) {
            dy.dsu[l as usize] = rep;
            dy.retired.push(l);
            res.num_bcc -= 1;
        }
        res.head[rep as usize] = new_head;
        Ok(())
    }

    /// Re-solve the block labelled `region` on the new graph, anchored at
    /// its head, and splice the local result into the global arrays.
    /// Returns false when a budget is exceeded (caller falls back).
    fn sub_solve(&mut self, old: &Graph, new: &Graph, region: u32) -> bool {
        let anchor = self.result.head[region as usize];
        if anchor == NONE {
            return false;
        }
        // Collect the block: label-filtered BFS from the anchor over the
        // union of old and new adjacency (deleted-but-unprocessed edges
        // are still structural mid-batch, so the old lists are required
        // for reachability; the new lists cover batch insertions).
        let labels = &self.result.labels;
        let in_block = |w: V| labels[w as usize] == region;
        let Some((_, era, arcs_scanned)) = self.dynamic.flood(&[old, new], &[anchor], in_block)
        else {
            return false;
        };

        // The old class dies with its members' relabelling; the anchor
        // (the region root) keeps its global label and class —
        // exactly why the sub-solve is anchored there. Two blocks share at
        // most one vertex, so every new-graph edge between members is a
        // block edge.
        self.solve_region(new, era, arcs_scanned, 1);
        true
    }

    /// Split block `region`, too large to re-solve whole, after its
    /// certificate for the deletion `del` failed with `cert`: one end block
    /// at a time. The blocks of the block minus the deleted edge form a
    /// path between the endpoints' blocks, and a failed certificate's
    /// exhausted side is the end block at its end without the cut vertex
    /// `c` that closes it (plus whatever hangs off it). That side plus `c`
    /// is re-solved in place rooted at `c` (`first == 1`), so it becomes
    /// new classes under `c`; the end moves to `c`, P1 keeps the part past
    /// `c`, and only the residual search runs again, until it passes or
    /// the ends meet in one edge. A side that holds the block's head or its
    /// class id stays (the rest could keep neither), and the other end is
    /// searched alone and peeled instead.
    ///
    /// Returns false (the caller falls back) when the certificate was
    /// undecided, both ends' sides pass [`SUB_CAP`] vertices or hold the
    /// head or the class id, or another deleted edge joins a side to the
    /// rest of the block: the rest then need not stay one block, and no
    /// certificate of its own deletion would see that once the side is
    /// peeled.
    fn peel(&mut self, old: &Graph, new: &Graph, region: u32, del: [V; 2], mut cert: Cert) -> bool {
        let h = self.result.head[region as usize];
        let mut ends = del;
        let mut alone = false;
        loop {
            let Cert::Split { side, era } = cert else {
                return cert == Cert::Pass;
            };
            let in_block = block_of(&self.result.labels, region, h);
            let dy = &mut self.dynamic;
            if !dy.gather_side(new, ends, side, era, |w| w != h && w != region) {
                if alone {
                    return false;
                }
                alone = true;
                let live = [side == 1, side == 0];
                cert = dy.residual(new, ends, live, in_block);
                continue;
            }
            alone = false;
            let c = dy.queue[0];
            let r = dy.next_era();
            let mut arcs_scanned = 0;
            for &w in &dy.queue {
                dy.mark[w as usize] = r;
                arcs_scanned += new.degree(w);
            }
            // The side is closed under the new graph's edges inside the
            // block, so an old edge from it to the rest was deleted.
            let rest = |z: V| dy.mark[z as usize] != r && in_block(z);
            for &w in &dy.queue[1..] {
                arcs_scanned += old.degree(w);
                if old
                    .neighbors(w)
                    .iter()
                    .any(|&z| rest(z) && [w.min(z), w.max(z)] != del)
                {
                    return false;
                }
            }
            let k = dy.queue.len() as u32 - 1;
            self.solve_region(new, r, arcs_scanned, 1);
            self.result.label_count[region as usize] -= k;
            let dy = &mut self.dynamic;
            if r > dy.p1 {
                // Back on P1; after a wrap `residual` marks P1 afresh.
                dy.mark[c as usize] = dy.p1;
            }
            ends[side] = c;
            cert = dy.residual(
                new,
                ends,
                [true; 2],
                block_of(&self.result.labels, region, h),
            );
        }
    }

    /// Solve the subgraph of `new` induced by the region members that
    /// [`DynState::flood`] left in `queue` (marked with `era`, `queue[0]`
    /// as the root) with the engine's DFS, in place on the global result,
    /// and relabel `queue[first..]` from its pre-order: their classes,
    /// heads and counts come from the region search, and their DSU entries
    /// reset to identity. With `first == 1` the root keeps its class.
    /// Charges the region's vertices plus `arcs_scanned` against the batch
    /// work budget, and moves `num_bcc`/`num_cc` by the blocks and trees
    /// the re-solve made minus those its members held before: a live class
    /// of a member (a retired one was counted off when it merged) and a
    /// member root.
    fn solve_region(&mut self, new: &Graph, era: u32, arcs_scanned: usize, first: usize) {
        let dy = &mut self.dynamic;
        let res = &mut self.result;
        let (tags, dfs) = (&mut self.ws.tags, &mut self.ws.dfs);
        dy.work_budget = dy.work_budget.saturating_sub(dy.queue.len() + arcs_scanned);
        let (mut blocks_before, mut roots_before) = (0, 0);
        for &v in &dy.queue[first..] {
            let x = v as usize;
            if dy.dsu[x] == v && res.is_bcc_label(v) {
                blocks_before += 1;
            }
            if res.labels[x] == v && res.head[x] == NONE {
                roots_before += 1;
            }
            res.head[x] = NONE;
            res.label_count[x] = 0;
            dy.dsu[x] = v;
        }
        let mark = &dy.mark;
        let trees = dfs_region_in(new, &dy.queue, |w| mark[w as usize] == era, tags, dfs);
        // The root comes first in the pre-order.
        let blocks = label_sweep(
            &dfs.order()[first..],
            tags,
            &mut res.labels,
            &mut res.head,
            &mut res.label_count,
        );
        res.num_bcc = res.num_bcc + blocks - blocks_before;
        res.num_cc = res.num_cc + (trees - first) - roots_before;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{fast_bcc, BccOpts};
    use crate::engine::DFS_MAX_BUDGET;
    use crate::postprocess::{articulation_points, bridges, canonical_bccs};
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::generators::{grid2d, rmat};
    use proptest::prelude::*;

    /// The incremental result must keep the representation's invariants
    /// and be indistinguishable from a fresh solve of the same (evolved)
    /// graph across every label-based consumer.
    fn assert_matches_fresh(engine: &BccEngine, ctx: &str) {
        let g = engine.graph().expect("attached");
        if let Err(e) = engine.result.verify_representation(g) {
            panic!("representation: {e} {ctx}");
        }
        let fresh = fast_bcc(g, engine.opts());
        let r = &engine.result;
        assert_eq!(r.num_cc, fresh.num_cc, "num_cc {ctx}");
        assert_eq!(r.num_bcc, fresh.num_bcc, "num_bcc {ctx}");
        assert_eq!(canonical_bccs(r), canonical_bccs(&fresh), "bccs {ctx}");
        assert_eq!(
            articulation_points(r),
            articulation_points(&fresh),
            "cuts {ctx}"
        );
        // Bridges are reported as (head, member); the incremental forest
        // can be rooted differently from a fresh solve's, so compare the
        // underlying undirected edges.
        let norm = |mut v: Vec<(V, V)>| {
            for e in v.iter_mut() {
                *e = (e.0.min(e.1), e.0.max(e.1));
            }
            v.sort_unstable();
            v
        };
        assert_eq!(norm(bridges(r)), norm(bridges(&fresh)), "bridges {ctx}");
    }

    #[test]
    fn cycle_delete_and_readd() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&cycle(10));
        let r = e.apply_batch(&[], &[(0, 1)]);
        assert_eq!(r.num_bcc, 9);
        assert!(e.last_apply_report().unwrap().incremental);
        assert_matches_fresh(&e, "after del");
        let r = e.apply_batch(&[(0, 1)], &[]);
        assert_eq!(r.num_bcc, 1);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "re-add fell back: {:?}", rep.fallback);
        assert_eq!(rep.adds_merged, 1);
        assert_matches_fresh(&e, "after re-add");
    }

    #[test]
    fn bridge_cut_disconnects_in_o1() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&barbell(5, 1)); // two K5s joined by a path of length 1
        let before_cc = e.result.num_cc;
        // Find the bridge and cut it.
        let b = bridges(&e.result);
        let (u, v) = b[0];
        e.apply_batch(&[], &[(u, v)]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental);
        assert_eq!(rep.dels_bridge, 1);
        assert_eq!(e.result.num_cc, before_cc + 1);
        assert_matches_fresh(&e, "after bridge cut");
    }

    #[test]
    fn bridge_readd_links_trees_in_o1() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&barbell(4, 1));
        let (u, v) = bridges(&e.result)[0];
        e.apply_batch(&[], &[(u, v)]);
        assert_matches_fresh(&e, "split");
        // The cut made the child a tree root, so the re-add is the O(1)
        // forest-link case: hang the root back under its old parent.
        e.apply_batch(&[(u, v)], &[]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_eq!(rep.adds_linked, 1);
        assert_matches_fresh(&e, "rejoined");
    }

    #[test]
    fn isolated_vertices_link_incrementally() {
        // path(100) plus two isolated vertices 100 and 101 (the path is
        // long so a 2-edge batch stays under `max_churn_frac`).
        let edges: Vec<(V, V)> = (0..99).map(|i| (i as V, i as V + 1)).collect();
        let g = fastbcc_graph::builder::from_edges(102, &edges);
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&g);
        assert_eq!(e.result.num_cc, 3);
        // Chain the isolated vertices onto the path in one batch.
        let r = e.apply_batch(&[(50, 100), (100, 101)], &[]);
        assert_eq!(r.num_cc, 1);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_eq!(rep.adds_linked, 2);
        assert_matches_fresh(&e, "linked");
        // Closing a cycle over the freshly linked bridges merges them.
        e.apply_batch(&[(60, 101)], &[]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_matches_fresh(&e, "cycled");
    }

    #[test]
    fn cross_tree_add_at_path_interiors_reroots() {
        // Two disjoint 30-vertex paths; join them through interior
        // vertices. Neither endpoint is a root, so the forest link cannot
        // apply; the region re-root re-solves one path and hangs it under
        // the other endpoint.
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&disjoint_union(&[&path(30), &path(30)]));
        assert_eq!(e.result.num_cc, 2);
        let parent = &e.tags().parent;
        let a = (0..30).find(|&x| parent[x as usize] != NONE).unwrap();
        let b = (30..60)
            .rev()
            .find(|&x| parent[x as usize] != NONE)
            .unwrap();
        let r = e.apply_batch(&[(a, b)], &[]);
        assert_eq!(r.num_cc, 1);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_eq!(rep.adds_rerooted, 1);
        assert_matches_fresh(&e, "rerooted");
        // A second chord now lands inside one component and merges blocks
        // across the re-rooted seam.
        e.apply_batch(&[(a.saturating_sub(3), b - 3)], &[]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_matches_fresh(&e, "chord over seam");
    }

    #[test]
    fn cross_component_add_at_non_roots_region_reroots() {
        // Two disjoint 5-cycles; join them through non-root vertices. The
        // root paths run through cycle blocks; the component-sized region
        // re-root absorbs the insertion all the same.
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&disjoint_union(&[&cycle(5), &cycle(5)]));
        assert_eq!(e.result.num_cc, 2);
        // Find a non-root vertex in each component (a root has no parent).
        let parent = &e.tags().parent;
        let a = (0..5).find(|&x| parent[x as usize] != NONE).unwrap();
        let b = (5..10).find(|&x| parent[x as usize] != NONE).unwrap();
        e.apply_batch(&[(a, b)], &[]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_eq!(rep.adds_rerooted, 1);
        assert_eq!(e.result.num_cc, 1);
        assert_matches_fresh(&e, "joined");
        // A follow-up chord across the new bridge merges through it.
        e.apply_batch(&[(a, (b + 1).min(9))], &[]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_matches_fresh(&e, "chord over region seam");
    }

    #[test]
    fn cross_component_add_beyond_caps_falls_back() {
        // Both components exceed `SUB_CAP`, so neither side's region fits
        // and the cross-tree insertion has to take the full re-solve.
        let mut e = BccEngine::new(BccOpts::default());
        let k = SUB_CAP + 8;
        e.attach(&disjoint_union(&[&cycle(k), &cycle(k)]));
        let parent = &e.tags().parent;
        let a = (0..k as V).find(|&x| parent[x as usize] != NONE).unwrap();
        let b = (k as V..2 * k as V)
            .find(|&x| parent[x as usize] != NONE)
            .unwrap();
        e.apply_batch(&[(a, b)], &[]);
        let rep = e.last_apply_report().unwrap();
        assert!(!rep.incremental);
        assert_eq!(rep.fallback, Some(super::FB_CROSS));
        assert_matches_fresh(&e, "joined beyond caps");
    }

    #[test]
    fn cert_pass_keeps_labels_without_resolve() {
        // A 4-clique stays 2-connected after losing one edge.
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&complete(4));
        e.apply_batch(&[], &[(1, 2)]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental);
        assert_eq!(rep.dels_cert_pass, 1);
        assert_eq!(rep.dels_sub_solve, 0);
        assert_matches_fresh(&e, "clique minus edge");
    }

    /// 1,000 four-vertex blocks in a chain: block `i` is a 4-cycle with
    /// both chords (a `K4`) on `3i ..= 3i + 3`, so consecutive blocks share
    /// one cut vertex and any single edge can go without splitting a block.
    fn k4_chain() -> Graph {
        let mut edges = Vec::new();
        for i in 0..1000 {
            let b = 3 * i as V;
            for x in b..b + 4 {
                edges.extend((x + 1..b + 4).map(|y| (x, y)));
            }
        }
        fastbcc_graph::builder::from_edges(3001, &edges)
    }

    #[test]
    fn cert_passed_tree_deletion_rehangs_only_its_block() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&k4_chain());
        // Vertex 1501 is inside block 500, so its parent edge is a tree
        // edge of that block. The block stays biconnected, so nothing is
        // walked.
        let p = e.tags().parent[1501];
        e.apply_batch(&[], &[(p, 1501)]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_eq!(rep.dels_cert_pass, 1);
        assert_eq!(rep.rehang_vertices, 0);
        assert_eq!(e.result.num_bcc, 1000);
        assert_matches_fresh(&e, "one K4 edge cut");
    }

    #[test]
    fn merge_after_cert_passed_deletions_rehangs_the_merged_block_once() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&k4_chain());
        // Cut a tree edge in blocks 500 and 501, then join their non-cut
        // vertices 1501 and 1504: the two blocks merge through cut 1503.
        // Each class holds three members, and only the retired one is
        // walked.
        let parent = &e.tags().parent;
        let cuts = [(parent[1501], 1501), (parent[1504], 1504)];
        e.apply_batch(&[(1501, 1504)], &cuts);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_eq!((rep.dels_cert_pass, rep.adds_merged), (2, 1));
        assert_eq!(rep.rehang_vertices, 3, "one walk over the retired class");
        assert_eq!(e.result.num_bcc, 999);
        assert_matches_fresh(&e, "merged after cuts");
    }

    #[test]
    fn era_wrap_clears_the_stamps() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&k4_chain());
        // The chain walk's two eras straddle the wrap, so `next_era`
        // clears the stamps and restarts at 1: an era of 0 would match
        // every unstamped entry.
        e.dynamic.era = u32::MAX - 1;
        let parent = &e.tags().parent;
        let cuts = [(parent[1501], 1501), (parent[1504], 1504)];
        e.apply_batch(&[(1501, 1504)], &cuts);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        assert_eq!((rep.adds_merged, rep.rehang_vertices), (1, 3));
        assert_matches_fresh(&e, "across the era wrap");
    }

    /// The exact certificate against the BCCs of a fresh solve: after
    /// deleting any edge `(u, v)`, two internally disjoint `u`–`v` paths
    /// exist iff `u` and `v` still share a block. When they do not, the
    /// exhausted side is the component of its own end once the cut vertex
    /// the peel roots at is removed, and that vertex separates the ends.
    #[test]
    fn cert_decides_same_bcc_after_each_deletion() {
        for g in [
            rmat(6, 160, 7),
            grid2d(6, 5, false),
            clique_chain(4, 4),
            disjoint_union(&[&cycle(8), &barbell(3, 2), &path(5), &complete(5)]),
        ] {
            let edges: Vec<(V, V)> = g.iter_edges().collect();
            let mut dy = DynState::default();
            dy.reset_for(g.n());
            // Start a few eras short of the wrap, so the searches cross it.
            dy.era = u32::MAX - 4;
            for &(u, v) in &edges {
                let rest: Vec<(V, V)> = edges.iter().copied().filter(|&e| e != (u, v)).collect();
                let h = fastbcc_graph::builder::from_edges(g.n(), &rest);
                dy.work_budget = usize::MAX;
                let want = fast_bcc(&h, BccOpts::default()).same_bcc(u, v);
                let cert = match dy.first_path(&h, u, v, |_| true) {
                    true => dy.residual(&h, [u, v], [true; 2], |_| true),
                    false => Cert::Unknown,
                };
                let ctx = format!("edge ({u}, {v}): {cert:?}");
                match cert {
                    Cert::Pass => assert!(want, "{ctx}"),
                    Cert::Unknown => {
                        assert!(
                            component_without(&h, u, NONE).binary_search(&v).is_err(),
                            "{ctx}"
                        )
                    }
                    Cert::Split { side, era } => {
                        assert!(!want, "{ctx}");
                        assert!(dy.gather_side(&h, [u, v], side, era, |_| true), "{ctx}");
                        let c = dy.queue[0];
                        let mut got = dy.queue[1..].to_vec();
                        got.sort_unstable();
                        let end = [u, v][side];
                        let comp = component_without(&h, end, c);
                        assert_eq!(got, comp, "{ctx}, cut {c}");
                        assert!(comp.binary_search(&[u, v][side ^ 1]).is_err(), "{ctx}");
                    }
                }
            }
        }
    }

    /// The sorted vertices reachable from `s` in `g` without entering `cut`.
    fn component_without(g: &Graph, s: V, cut: V) -> Vec<V> {
        let mut seen = vec![false; g.n()];
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(x) = stack.pop() {
            for &w in g.neighbors(x) {
                if w != cut && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        (0..g.n() as V).filter(|&x| seen[x as usize]).collect()
    }

    /// Hubs `H1`, `H2` and 70,000 leaves each adjacent to both, plus
    /// `u–H1`, `v–H2`, a common neighbour `y` of `u` and `v`, and `u–v`:
    /// one block of 70,005 vertices, too many for one certificate side to
    /// flood within [`CERT_CAP`]. `ids` numbers `[H1, H2, u, v, y]`; the
    /// leaves take the other ids in order.
    fn two_hubs(ids: [V; 5]) -> Graph {
        const LEAVES: usize = 70_000;
        let [h1, h2, u, v, y] = ids;
        let mut edges = vec![(u, h1), (v, h2), (u, y), (v, y), (u, v)];
        let leaves = (0..(LEAVES + 5) as V).filter(|x| !ids.contains(x));
        edges.extend(leaves.flat_map(|l| [(l, h1), (l, h2)]));
        fastbcc_graph::builder::from_edges(LEAVES + 5, &edges)
    }

    /// Deleting `u–v` leaves `u–y–v` beside `u–H1–leaf–H2–v`: the
    /// two-sided certificate finds both without flooding either hub's
    /// leaves from one side alone, so the batch stays incremental.
    #[test]
    fn two_hub_deletion_passes_its_certificate() {
        for budget in [1, DFS_MAX_BUDGET + 1] {
            fastbcc_primitives::with_threads(budget, || {
                let mut e = BccEngine::new(BccOpts::default());
                e.attach(&two_hubs([0, 1, 2, 3, 4]));
                e.apply_batch(&[], &[(2, 3)]);
                let rep = e.last_apply_report().unwrap();
                assert!(rep.incremental, "fell back: {:?}", rep.fallback);
                assert_eq!((rep.dels_cert_pass, rep.dels_sub_solve), (1, 0));
                assert_eq!(e.result.num_bcc, 1);
                assert_matches_fresh(&e, "u–v deleted");
            });
        }
    }

    /// Deleting a leaf's `H1` edge splits the giant block into the block
    /// without the leaf and the bridge from the leaf to `H2`: the peel
    /// re-solves just the leaf and `H2`, and the re-certified rest passes.
    #[test]
    fn two_hub_leaf_deletion_peels_the_leaf() {
        for budget in [1, DFS_MAX_BUDGET + 1] {
            fastbcc_primitives::with_threads(budget, || {
                let mut e = BccEngine::new(BccOpts::default());
                e.attach(&two_hubs([0, 1, 2, 3, 4]));
                let r = e.result();
                let l = r.labels[5];
                let leaf = (5..).find(|&x| x != l && x != r.head[l as usize]).unwrap();
                e.apply_batch(&[], &[(0, leaf)]);
                let rep = e.last_apply_report().unwrap();
                assert!(rep.incremental, "fell back: {:?}", rep.fallback);
                assert_eq!((rep.dels_cert_pass, rep.dels_sub_solve), (0, 1));
                let r = e.result();
                assert_eq!(
                    (r.num_bcc, r.labels[leaf as usize], r.head[leaf as usize]),
                    (2, leaf, 1)
                );
                assert_eq!(r.label_count[l as usize], 70_003);
                assert_matches_fresh(&e, "leaf peeled");
            });
        }
    }

    /// A peel whose small side holds the block's head or class id cannot
    /// leave the rest with its class, so the batch falls back and matches
    /// a fresh solve all the same. At budget 1 the DFS roots at vertex 0,
    /// which heads the block, and the block's class id is 0's smallest
    /// neighbour.
    #[test]
    fn two_hub_peel_of_the_head_or_class_id_falls_back() {
        fastbcc_primitives::with_threads(1, || {
            // Vertex 0 is a leaf and heads the block; cutting its `H1`
            // edge leaves it on the small side.
            let mut e = BccEngine::new(BccOpts::default());
            e.attach(&two_hubs([1, 2, 3, 4, 5]));
            assert_eq!(e.result.head[e.result.labels[1] as usize], 0);
            e.apply_batch(&[], &[(0, 1)]);
            let rep = e.last_apply_report().unwrap();
            assert_eq!(rep.fallback, Some(FB_REGION));
            assert_matches_fresh(&e, "head peeled");
            // `u` is `H1`'s smallest neighbour, so the block's class id;
            // without `u–H1`, `{u, y}` hangs off `v`.
            let mut e = BccEngine::new(BccOpts::default());
            e.attach(&two_hubs([0, 1, 2, 3, 4]));
            assert_eq!(e.result.labels[5], 2);
            e.apply_batch(&[], &[(0, 2)]);
            let rep = e.last_apply_report().unwrap();
            assert_eq!(rep.fallback, Some(FB_REGION));
            assert_matches_fresh(&e, "class id peeled");
        });
    }

    /// A cycle longer than [`SUB_CAP`] loses an edge: its block becomes a
    /// path of bridges, peeled one vertex at a time. At budget 1 the block
    /// is headed by 0 with class id 1, so the peel from `2500`'s end stops
    /// at 1 and the rest comes from `2501`'s end, until the ends are the
    /// single edge `1–0`.
    #[test]
    fn cycle_split_peels_from_both_ends() {
        fastbcc_primitives::with_threads(1, || {
            let mut e = BccEngine::new(BccOpts::default());
            e.attach(&cycle(5000));
            assert_eq!((e.result.labels[2500], e.result.head[1]), (1, 0));
            e.apply_batch(&[], &[(2500, 2501)]);
            let rep = e.last_apply_report().unwrap();
            assert!(rep.incremental, "fell back: {:?}", rep.fallback);
            assert_eq!(rep.dels_sub_solve, 1);
            assert_eq!(e.result.num_bcc, 4999);
            assert_matches_fresh(&e, "cycle split");
        });
    }

    /// One block: triangles `{0, 1, 2}` and `{0, 3, 4}` on vertex 0, the
    /// path `0–5–6`, and the edges `1–5` and `3–6` that tie them together.
    /// Deleting `1–5` and `3–6` in one batch leaves four blocks. With every
    /// block peeled, `1–5` peels `{5, 6}` off at 0 and the rest `{0..=4}`
    /// still passes its certificate for `(0, 1)`, but the later deletion
    /// `3–6` joined the peeled side to `{0, 3, 4}`: the rest is two blocks,
    /// and once `{5, 6}` is peeled no certificate of `3–6` would see it.
    #[test]
    fn peel_falls_back_when_a_later_deletion_crosses_the_side() {
        fastbcc_primitives::with_threads(1, || {
            let edges = [
                (0, 1),
                (0, 2),
                (1, 2),
                (0, 3),
                (0, 4),
                (3, 4),
                (0, 5),
                (5, 6),
                (1, 5),
                (3, 6),
            ];
            let mut e = BccEngine::new(BccOpts::default());
            e.dynamic.churn_frac = Some(1.0);
            e.dynamic.peel_above = Some(0);
            e.attach(&fastbcc_graph::builder::from_edges(7, &edges));
            assert_eq!(e.result.num_bcc, 1);
            e.apply_batch(&[], &[(1, 5), (3, 6)]);
            let rep = e.last_apply_report().unwrap();
            assert_eq!(rep.fallback, Some(FB_REGION));
            assert_eq!(e.result.num_bcc, 4);
            assert_matches_fresh(&e, "side crossed by a later deletion");
        });
    }

    #[test]
    fn root_insertion_into_its_own_tree_merges_not_links() {
        // At budget 1 the DFS roots each path at vertex 0.
        fastbcc_primitives::with_threads(1, || {
            let mut e = BccEngine::new(BccOpts::default());
            e.attach(&path(200));
            assert_eq!(e.tags().parent[0], NONE);
            e.apply_batch(&[(0, 150)], &[]);
            let rep = e.last_apply_report().unwrap();
            assert!(rep.incremental, "fell back: {:?}", rep.fallback);
            assert_eq!((rep.adds_merged, rep.adds_linked), (1, 0));
            assert_eq!(e.result.num_bcc, 50);
            assert_matches_fresh(&e, "cycle closed at the root");
            // A head chain past `CHAIN_CAP` falls back before any link.
            e.attach(&path(2000));
            e.apply_batch(&[(0, 1500)], &[]);
            let rep = e.last_apply_report().unwrap();
            assert_eq!(rep.fallback, Some(FB_CHAIN));
            assert_matches_fresh(&e, "chain past the cap");
        });
    }

    #[test]
    fn attach_sizes_at_most_36_bytes_of_scratch_per_vertex() {
        let g = k4_chain();
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&g);
        let dy = &e.dynamic;
        let scratch = dy.heap_bytes()
            - dy.graph.as_ref().unwrap().capacity_bytes()
            - (dy.delta.adds.capacity() + dy.delta.dels.capacity()) * 8
            - dy.delta_scratch.heap_bytes();
        let chains = 2 * (CHAIN_CAP + 1) * 8;
        assert!(
            scratch <= 36 * g.n() + chains,
            "{scratch} B for n = {}",
            g.n()
        );
    }

    #[test]
    fn windmill_add_merges_blades() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&windmill(4)); // center 0, blades (1,2), (3,4), ...
        e.apply_batch(&[(1, 3)], &[]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental, "fallback: {:?}", rep.fallback);
        assert_eq!(rep.adds_merged, 1);
        assert_eq!(e.result.num_bcc, 3); // two blades fused through the hub
        assert_matches_fresh(&e, "windmill merge");
    }

    #[test]
    fn churn_threshold_falls_back() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&cycle(40));
        let dels: Vec<(V, V)> = (0..10).map(|i| (i as V, (i + 1) as V)).collect();
        e.apply_batch(&[], &dels);
        let rep = e.last_apply_report().unwrap();
        assert!(!rep.incremental);
        assert_eq!(rep.fallback, Some(super::FB_CHURN));
        assert_matches_fresh(&e, "after churn fallback");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&petersen());
        let before = canonical_bccs(&e.result);
        e.apply_batch(&[(0, 0)], &[(9, 9)]);
        let rep = e.last_apply_report().unwrap();
        assert!(rep.incremental);
        assert_eq!((rep.adds, rep.dels), (0, 0));
        assert_eq!(canonical_bccs(&e.result), before);
    }

    #[test]
    fn random_batches_match_fresh_solves() {
        // Up to `DFS_MAX_BUDGET` the attached result and every fallback
        // are DFS solves; one worker past it they run the pipeline. Region
        // repairs run the in-place region DFS at every budget.
        for budget in [1, DFS_MAX_BUDGET, DFS_MAX_BUDGET + 1] {
            fastbcc_primitives::with_threads(budget, random_batches_round);
        }
    }

    fn random_batches_round() {
        for (gi, g0) in [
            rmat(8, 700, 3),
            grid2d(14, 11, false),
            clique_chain(6, 5),
            disjoint_union(&[&cycle(12), &barbell(4, 2), &path(6)]),
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = BccEngine::new(BccOpts::default());
            e.attach(&g0);
            let mut seed = 0xC0FFEE ^ (gi as u64) << 7;
            let mut rng = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            for round in 0..12 {
                let g = e.graph().unwrap();
                let n = g.n() as u64;
                let live: Vec<(V, V)> = g.iter_edges().collect();
                let mut dels = Vec::new();
                for _ in 0..3 {
                    dels.push(live[(rng() % live.len() as u64) as usize]);
                }
                let mut adds = Vec::new();
                for _ in 0..3 {
                    adds.push(((rng() % n) as V, (rng() % n) as V));
                }
                e.apply_batch(&adds, &dels);
                assert_matches_fresh(&e, &format!("graph {gi} round {round}"));
            }
        }
    }

    /// A batch script: per batch, raw insertion pairs plus *indices* into
    /// the live edge list at application time — so deletions always strike
    /// present edges (bridges and tree edges included) instead of being
    /// normalized away.
    type Script = Vec<(Vec<(V, V)>, Vec<usize>)>;

    fn arb_scripted_graph(
        nmax: usize,
        mmax: usize,
    ) -> impl Strategy<Value = (usize, Vec<(V, V)>, Script)> {
        (5..nmax).prop_flat_map(move |n| {
            (
                Just(n),
                proptest::collection::vec((0..n as V, 0..n as V), 0..mmax),
                proptest::collection::vec(
                    (
                        proptest::collection::vec((0..n as V, 0..n as V), 0..6),
                        proptest::collection::vec(0usize..usize::MAX, 0..6),
                    ),
                    1..6,
                ),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Arbitrary add/del scripts with the churn gate off, so every
        /// incremental machinery path gets exercised and must agree with
        /// a fresh solve after each batch (checked against a mirrored
        /// edge set, too).
        #[test]
        fn incremental_batches_match_fresh_solves(
            (n, init, script) in arb_scripted_graph(40, 90)
        ) {
            for budget in [1, DFS_MAX_BUDGET, DFS_MAX_BUDGET + 1] {
                fastbcc_primitives::with_threads(budget, || run_ungated(n, &init, &script, None));
            }
        }

        /// The same scripts with every block peeled, however small, so
        /// the peel meets several deletions in one block, deletions that
        /// cross a peeled side, and heads and class ids on the small side.
        #[test]
        fn peeled_batches_match_fresh_solves(
            (n, init, script) in arb_scripted_graph(40, 90)
        ) {
            for budget in [1, DFS_MAX_BUDGET + 1] {
                fastbcc_primitives::with_threads(budget, || run_ungated(n, &init, &script, Some(0)));
            }
        }
    }

    /// One scripted run with the churn gate off, checked after every batch.
    fn run_ungated(n: usize, init: &[(V, V)], script: &Script, peel_above: Option<usize>) {
        let g0 = fastbcc_graph::builder::from_edges(n, init);
        let mut live: Vec<(V, V)> = g0.iter_edges().collect();
        let mut e = BccEngine::new(BccOpts::default());
        e.dynamic.churn_frac = Some(1.0);
        e.dynamic.peel_above = peel_above;
        e.attach(&g0);
        for (bi, (adds, del_picks)) in script.iter().enumerate() {
            let mut dels: Vec<(V, V)> = del_picks
                .iter()
                .filter(|_| !live.is_empty())
                .map(|&i| live[i % live.len()])
                .collect();
            dels.sort_unstable();
            dels.dedup();
            e.apply_batch(adds, &dels);
            live.retain(|x| !dels.contains(x));
            for &(a, b) in adds {
                let x = (a.min(b), a.max(b));
                if x.0 != x.1 && !live.contains(&x) {
                    live.push(x);
                }
            }
            live.sort_unstable();
            let report = e.last_apply_report().expect("batch ran");
            let got: Vec<(V, V)> = e.graph().unwrap().iter_edges().collect();
            assert_eq!(got, live, "edge mirror diverged at batch {bi}");
            assert_matches_fresh(&e, &format!("batch {bi} ({report:?})"));
        }
    }

    #[test]
    fn warm_incremental_batches_allocate_nothing() {
        for budget in [1, DFS_MAX_BUDGET, DFS_MAX_BUDGET + 1] {
            fastbcc_primitives::with_threads(budget, warm_batches_round);
            fastbcc_primitives::with_threads(budget, warm_region_rounds);
        }
    }

    fn warm_batches_round() {
        let g = grid2d(40, 25, false);
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&g);
        let mut seed = 0x5EEDu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut warm_rounds = 0;
        for round in 0..14 {
            let g = e.graph().unwrap();
            let n = g.n() as u64;
            let live: Vec<(V, V)> = g.iter_edges().collect();
            let dels = vec![live[(rng() % live.len() as u64) as usize]];
            let adds = vec![((rng() % n) as V, (rng() % n) as V)];
            let fresh = e.apply_batch(&adds, &dels).fresh_alloc_bytes;
            let rep = e.last_apply_report().unwrap();
            if rep.incremental && round >= 6 {
                assert_eq!(fresh, 0, "warm incremental batch allocated (round {round})");
                warm_rounds += 1;
            }
        }
        assert!(warm_rounds > 0, "no warm incremental rounds measured");
    }

    /// Warm rounds that repair regions, on a 40×25 grid with a 5-cycle
    /// hung off each of 40 grid vertices plus 40 separate 5-vertex paths.
    /// Six grid-only rounds settle the delta scratch; then each round cuts
    /// a cycle edge (a region re-solve anchored at the grid vertex) and
    /// joins a path's interior to the grid (a region re-root). Those are
    /// the engine's first region solves, so above `DFS_MAX_BUDGET` they
    /// run on the DFS scratch `attach` sized and nothing else.
    fn warm_region_rounds() {
        let grid = grid2d(40, 25, false);
        let mut edges: Vec<(V, V)> = grid.iter_edges().collect();
        let base = |i: V| 1000 + 9 * i;
        for i in 0..40 {
            let ring = [25 * i, base(i), base(i) + 1, base(i) + 2, base(i) + 3];
            edges.extend((0..5).map(|k| (ring[k], ring[(k + 1) % 5])));
            edges.extend((base(i) + 4..base(i) + 8).map(|x| (x, x + 1)));
        }
        let mut e = BccEngine::new(BccOpts::default());
        e.attach(&fastbcc_graph::builder::from_edges(1360, &edges));
        for round in 0..16 {
            let (dels, adds) = if round < 6 {
                let cut = grid.iter_edges().nth(37 * round as usize).unwrap();
                (cut, (7 * round, 7 * round + 2))
            } else {
                // Neither endpoint may be a tree root, or the insertion is
                // an O(1) link instead.
                let i = round - 6;
                let r = e.result();
                let inner = |mut x: V| {
                    while r.labels[x as usize] == x && r.head[x as usize] == NONE {
                        x += 1;
                    }
                    x
                };
                ((base(i), base(i) + 1), (inner(base(i) + 5), inner(500 + i)))
            };
            let fresh = e.apply_batch(&[adds], &[dels]).fresh_alloc_bytes;
            let rep = e.last_apply_report().unwrap();
            assert!(
                rep.incremental,
                "round {round} fell back: {:?}",
                rep.fallback
            );
            if round >= 6 {
                assert_eq!(
                    (rep.dels_sub_solve, rep.adds_rerooted),
                    (1, 1),
                    "round {round}"
                );
                assert_eq!(fresh, 0, "warm region repair allocated (round {round})");
            }
        }
        assert_matches_fresh(&e, "after region rounds");
    }
}
