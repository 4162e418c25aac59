//! Pre-counted frontier expansion (edgeMap) with sparse↔dense traversal.
//!
//! Every frontier phase in this workspace (LDD rounds, BFS levels, CC
//! union staging) shares one shape: visit the out-edges of a vertex
//! subset, try to *claim* each target exactly once, and collect the
//! winners as the next frontier. The per-worker-arena implementation of
//! that shape reserved `O(n)` per possible worker — an `O(n · P)`
//! envelope — and balanced work by *vertex* blocks, serializing whole
//! blocks behind one high-degree vertex. This module is the
//! Ligra/GBBS-style replacement [SB13; DBS21]:
//!
//! * **sparse** ([`edge_map`] below the density threshold) — per-frontier
//!   -vertex degrees are prefix-summed ([`crate::scan`]) so every arc owns
//!   a pre-counted slot of **one shared output buffer**; workers process
//!   equal *arc-count* blocks (splitting inside a vertex's neighbor list
//!   when needed), write the claimed target or a sentinel into each slot,
//!   and a pack compacts the winners into the next frontier. No
//!   per-worker staging, no worker-id merge, `O(frontier degree sum)`
//!   space;
//! * **dense** (past the two-part threshold of [`DENSE_DENOM`]: enough
//!   frontier arc mass *and* few enough unclaimed vertices) — the
//!   frontier becomes a bitmap and the round runs *bottom-up*: every
//!   unclaimed vertex scans its own neighbor list for a frontier member
//!   and claims itself without any CAS (each vertex is examined by
//!   exactly one task), breaking at the first hit — Beamer's direction
//!   optimization, which also removes the CAS storm huge frontiers
//!   suffer top-down.
//!
//! The module is graph-representation-agnostic: callers hand any
//! [`CsrView`] — the raw-slice adapter [`RawCsr`] for flat CSR arrays, or
//! a compressed/memory-mapped backend from the graph crate above this
//! one. Neighbor access is *streamed* through the view's per-block decode
//! callbacks (never random-indexed into a flat arc array), so a backend
//! whose adjacency is varint/delta-encoded serves the hot loops without
//! materializing a vertex's full neighbor list. Vertex ids must be
//! `< u32::MAX`; `u32::MAX` is the empty-slot sentinel.
//!
//! All buffers live in an [`EdgeMapScratch`] whose capacities are
//! deterministic in `(n, m)` alone — never in the parallel schedule or
//! worker ceiling — so warm solves through a pooled scratch stay
//! allocation-free at any thread budget.

use crate::atomics::as_atomic_u64;
use crate::pack::{pack_bits_into, pack_neq_into};
use crate::par::{num_blocks, num_threads, par_for, par_for_grain};
use crate::scan::prefix_sums;
use crate::slice::{reserve_to, reuse_uninit, UnsafeSlice};

/// Empty-slot sentinel of the sparse output buffer (also the "unvisited"
/// convention of every consumer in this workspace).
pub const EMPTY: u32 = u32::MAX;

/// A read-only CSR-shaped graph, as the frontier layer sees it: vertex
/// and arc counts, the cumulative arc offset of every vertex (for
/// arc-balanced block splitting), and *streamed* neighbor decode, by
/// local-index range ([`neighbors_in`](Self::neighbors_in)) or through a
/// resumable [`ArcCursor`] ([`cursor`](Self::cursor) and
/// [`next_while`](Self::next_while)).
///
/// This is the low-level contract the compressed and memory-mapped
/// backends implement; `fastbcc_graph::GraphView` extends it with
/// graph-level conveniences. Neighbor lists must be visited in ascending
/// local-index order, and every implementation must agree with
/// [`arc_start`](Self::arc_start) on degrees. The cursor methods have no
/// default body, so every backend resumes a scan at its own absolute
/// position rather than finding the list again. Methods are generic (the
/// trait is not object-safe) so the hot loops monomorphize per backend.
pub trait CsrView: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of directed arcs.
    fn m_arcs(&self) -> usize;

    /// Cumulative arc offset of vertex `v`, defined for `0..=n` with
    /// `arc_start(0) == 0` and `arc_start(n) == m_arcs()`. Monotone.
    fn arc_start(&self, v: usize) -> usize;

    /// Degree of `v`.
    #[inline]
    fn degree(&self, v: u32) -> usize {
        self.arc_start(v as usize + 1) - self.arc_start(v as usize)
    }

    /// Visit neighbors of `v` at local indices `lo..hi` (ascending),
    /// calling `f(local_index, neighbor)`. `hi ≤ degree(v)`. Block-coded
    /// backends decode only the blocks covering the range.
    fn neighbors_in<F: FnMut(usize, u32)>(&self, v: u32, lo: usize, hi: usize, f: F);

    /// A cursor at the start of `v`'s neighbor list, for
    /// [`next_while`](Self::next_while).
    fn cursor(&self, v: u32) -> ArcCursor;

    /// Hand `v`'s neighbors from `c` on to `f`, in ascending order, until
    /// `f` returns `false` or the list ends, and leave `c` just past the
    /// last neighbor handed out (a resumable early-exit scan: a
    /// depth-first search resumes each list where it stopped). `c` must
    /// come from [`cursor(v)`](Self::cursor) and be advanced only by this
    /// method on the same `v`. A resume reads no offset table and decodes
    /// no arc twice.
    fn next_while<F: FnMut(u32) -> bool>(&self, v: u32, c: &mut ArcCursor, f: F);

    /// Visit all neighbors of `v` in ascending local-index order until
    /// `f` returns `false` (the dense bottom-up early break).
    #[inline]
    fn neighbors_while<F: FnMut(u32) -> bool>(&self, v: u32, f: F) {
        self.next_while(v, &mut self.cursor(v), f);
    }

    /// Visit every neighbor of `v` as `f(neighbor)`.
    #[inline]
    fn for_neighbors<F: FnMut(u32)>(&self, v: u32, mut f: F) {
        self.neighbors_in(v, 0, self.degree(v), |_, w| f(w));
    }
}

/// A resumable position in one vertex's neighbor list, where
/// [`CsrView::next_while`] picks up. Plain data, so a depth-first search
/// keeps one per stack frame. Positions are absolute, so a resume reads
/// no offset table:
///
/// * flat backends: `pos` is the index of the next arc in the whole arc
///   array; `phase` and `prev` are unused;
/// * block-coded backends: `pos` is the byte position of the next varint
///   in the whole payload, `phase` the arcs left in the current block (0:
///   the next arc is a block head), and `prev` the last neighbor handed
///   out, which the next gap is added to.
///
/// On every backend `left` counts the arcs not yet handed out, so
/// `degree(v) - left` is the local index of the next one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArcCursor {
    pub pos: usize,
    pub left: usize,
    pub phase: u32,
    pub prev: u32,
}

impl ArcCursor {
    /// A flat cursor at arc index `start` with `deg` arcs to go.
    #[inline]
    pub fn flat(start: usize, deg: usize) -> Self {
        Self {
            pos: start,
            left: deg,
            ..Self::default()
        }
    }

    /// [`CsrView::next_while`] of a flat cursor over the whole arc array.
    #[inline]
    pub fn next_flat_while<F: FnMut(u32) -> bool>(&mut self, arcs: &[u32], mut f: F) {
        let run = &arcs[self.pos..self.pos + self.left];
        let taken = run.iter().position(|&w| !f(w)).map_or(run.len(), |i| i + 1);
        self.pos += taken;
        self.left -= taken;
    }
}

/// The flat raw-slice [`CsrView`]: an `offsets` array of length `n+1`
/// and a flat `arcs` array. The adapter the in-RAM CSR backend (and the
/// unit tests of this module) go through; neighbor "decode" is a slice
/// scan, so the streamed contract costs nothing here.
#[derive(Clone, Copy)]
pub struct RawCsr<'a> {
    offsets: &'a [usize],
    arcs: &'a [u32],
}

impl<'a> RawCsr<'a> {
    /// Wrap raw CSR slices. `offsets` must have length `n+1`, start at 0,
    /// be monotone, and end at `arcs.len()` (debug-asserted).
    #[inline]
    pub fn new(offsets: &'a [usize], arcs: &'a [u32]) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), arcs.len());
        Self { offsets, arcs }
    }
}

impl CsrView for RawCsr<'_> {
    #[inline]
    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn m_arcs(&self) -> usize {
        self.arcs.len()
    }

    #[inline]
    fn arc_start(&self, v: usize) -> usize {
        self.offsets[v]
    }

    #[inline]
    fn neighbors_in<F: FnMut(usize, u32)>(&self, v: u32, lo: usize, hi: usize, mut f: F) {
        let base = self.offsets[v as usize];
        for (j, &w) in self.arcs[base + lo..base + hi].iter().enumerate() {
            f(lo + j, w);
        }
    }

    #[inline]
    fn cursor(&self, v: u32) -> ArcCursor {
        let (base, end) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        ArcCursor::flat(base, end - base)
    }

    #[inline]
    fn next_while<F: FnMut(u32) -> bool>(&self, _v: u32, c: &mut ArcCursor, f: F) {
        c.next_flat_while(self.arcs, f);
    }
}

/// Denominator of the sparse→dense switch. A round goes dense when
/// **both** hold:
///
/// 1. `frontier degree sum + |frontier| > m / DENSE_DENOM` (Ligra's
///    edge-mass threshold), and
/// 2. `remaining unclaimed vertices ≤ frontier degree sum + |frontier|`
///    (Beamer's second direction-switch condition: the frontier can
///    plausibly swallow the remainder this round).
///
/// Condition 2 is what keeps high-diameter traversals top-down: an LDD
/// injection wave on a grid or chain can carry `> m/20` arc mass while
/// covering only a few percent of the graph per round — a bottom-up
/// round there pays its `O(n)` bitmap/pack floor many times over for no
/// gain. It also bounds the sparse slot buffer: a sparse round under
/// [`EdgeMapMode::Auto`] has degree sum ≤ `m / DENSE_DENOM` (condition 1
/// failed) or < `remaining ≤ n` (condition 2 failed), so the shared
/// output never exceeds `max(n, m / DENSE_DENOM)` slots.
pub const DENSE_DENOM: usize = 20;

/// Arc-count grain of one sparse expansion block.
const SPARSE_GRAIN: usize = 512;

/// Weight grain (`degree + 1` per vertex) of one dense bottom-up block.
const DENSE_GRAIN: usize = 1024;

/// Traversal-direction policy for [`edge_map`]. `Auto` applies the
/// [`DENSE_DENOM`] threshold; the forced modes exist for tests and for
/// callers that know their frontier shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeMapMode {
    /// Direction optimization: sparse below the threshold, dense above.
    #[default]
    Auto,
    /// Always top-down (pre-counted slots + pack). Forcing sparse on a
    /// frontier past the threshold may grow the slot buffer beyond its
    /// deterministic `Auto` envelope.
    Sparse,
    /// Always bottom-up (bitmap + full vertex scan).
    Dense,
}

/// One frontier phase's claim protocol. `edge_map` guarantees every
/// claimed vertex enters the next frontier exactly once; the op
/// guarantees claims are exclusive.
pub trait FrontierOp: Sync {
    /// Attempt to claim `w` through arc `(u, w)` in a *racy* context:
    /// several arcs may target `w` concurrently, and exactly one call per
    /// `w` may ever return `true` (use a CAS). Filtering of the arc
    /// itself (subgraph predicates) belongs here too.
    fn try_claim(&self, u: u32, w: u32) -> bool;

    /// Claim `w` through arc `(u, w)` when `w` is *uniquely owned* by the
    /// calling task (the dense bottom-up round hands each vertex to one
    /// task): no competing claimer exists, so no CAS is required. Must
    /// agree with [`try_claim`](Self::try_claim) on what is claimable.
    fn claim_unique(&self, u: u32, w: u32) -> bool {
        self.try_claim(u, w)
    }

    /// Is `w` still claimable at all? Lets the dense round skip settled
    /// vertices before touching their neighbor lists. Must be `false`
    /// once a claim on `w` succeeded.
    fn wants(&self, w: u32) -> bool;
}

/// Pooled buffers of the frontier layer: the degree/offset scratch, the
/// shared pre-counted slot buffer, and the two dense bitmaps. Capacities
/// are functions of `(n, m)` only — see [`EdgeMapScratch::reserve`].
#[derive(Default)]
pub struct EdgeMapScratch {
    /// Per-frontier-vertex degrees, prefix-summed in place into the
    /// exclusive slot offsets of the current round.
    deg: Vec<usize>,
    /// The shared output buffer: one slot per frontier arc, holding the
    /// claimed target or [`EMPTY`].
    slots: Vec<u32>,
    /// Dense rounds: bitmap of the current frontier.
    bits: Vec<u64>,
    /// Dense rounds: bitmap of the vertices claimed this round.
    claimed: Vec<u64>,
    /// Number of dense (bottom-up) rounds run through this scratch since
    /// construction or [`reset_stats`](Self::reset_stats).
    dense_rounds: usize,
}

/// Slot capacity that [`EdgeMapMode::Auto`] can never exceed: a sparse
/// round either failed the edge-mass threshold (`degree sum ≤
/// m / DENSE_DENOM`) or the swallow condition (`degree sum < remaining ≤
/// n`) — see [`DENSE_DENOM`].
pub fn sparse_slot_capacity(n: usize, m_arcs: usize) -> usize {
    n.max(m_arcs / DENSE_DENOM)
}

impl EdgeMapScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve every buffer for an `n`-vertex / `m_arcs`-arc graph:
    /// `O(n)` degree slots, `max(n, m/`[`DENSE_DENOM`]`)` output slots,
    /// and two `n`-bit maps. Deterministic in `(n, m_arcs)`, so repeated
    /// solves of one input keep `heap_bytes` fixed.
    pub fn reserve(&mut self, n: usize, m_arcs: usize) {
        reserve_to(&mut self.deg, n);
        reserve_to(&mut self.slots, sparse_slot_capacity(n, m_arcs));
        let words = n.div_ceil(64);
        reserve_to(&mut self.bits, words);
        reserve_to(&mut self.claimed, words);
    }

    /// Heap bytes currently reserved (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        8 * self.deg.capacity()
            + 4 * self.slots.capacity()
            + 8 * (self.bits.capacity() + self.claimed.capacity())
    }

    /// Dense (bottom-up) rounds run through this scratch so far.
    pub fn dense_rounds(&self) -> usize {
        self.dense_rounds
    }

    /// Zero the [`dense_rounds`](Self::dense_rounds) counter.
    pub fn reset_stats(&mut self) {
        self.dense_rounds = 0;
    }
}

/// Expand `frontier` one hop over the graph view `g`: offer every
/// out-arc to `op`, collect the claimed targets into `next` (cleared
/// first; order unspecified between blocks), and return whether the
/// round ran dense. `frontier` entries are vertex ids of `g`.
/// `remaining` is the caller's count of still-claimable vertices; an
/// upper bound is fine — it only steers the direction switch, never
/// correctness, and it is clamped to the vertex count so the `Auto`
/// slot-capacity envelope holds for any value.
pub fn edge_map<G: CsrView, Op: FrontierOp>(
    g: &G,
    frontier: &[u32],
    remaining: usize,
    op: &Op,
    mode: EdgeMapMode,
    scratch: &mut EdgeMapScratch,
    next: &mut Vec<u32>,
) -> bool {
    next.clear();
    let k = frontier.len();
    if k == 0 {
        return false;
    }
    // Clamp the hint to the vertex count: the `Auto` slot-capacity
    // envelope (`sparse_slot_capacity`) relies on `remaining ≤ n` in the
    // swallow condition, so an overshooting caller must not be able to
    // pin dense-worthy rounds sparse and grow the shared buffer past it.
    let remaining = remaining.min(g.n());
    // A round that fits in one block would run sequentially either way,
    // and under a 1-worker budget *every* round does: claim straight
    // into `next` and skip the count–scan–scatter–pack machinery (the
    // dominant regime on high-diameter graphs, whose rounds are tiny).
    // The decision reads only the budget and the frontier's degree sum,
    // so the claimed *set* — and every `Auto` mode decision — is
    // identical to the pre-counted path's.
    let single = num_threads() <= 1;
    if single || k <= SPARSE_GRAIN {
        let total: usize = frontier.iter().map(|&v| g.degree(v)).sum();
        let dense = is_dense(mode, total, k, g.m_arcs(), remaining);
        if dense {
            scratch.dense_rounds += 1;
            edge_map_dense(g, frontier, op, scratch, next);
            return true;
        }
        if single || total <= SPARSE_GRAIN {
            for &u in frontier {
                g.for_neighbors(u, |w| {
                    if op.try_claim(u, w) {
                        next.push(w);
                    }
                });
            }
            return false;
        }
        edge_map_sparse_counted(g, frontier, remaining, op, mode, scratch, next);
        return false;
    }

    edge_map_sparse_counted(g, frontier, remaining, op, mode, scratch, next)
}

/// The `Auto` density rule (see [`DENSE_DENOM`]); `total > 0` keeps
/// edgeless frontiers (and empty graphs) on the trivial sparse path.
fn is_dense(mode: EdgeMapMode, total: usize, k: usize, m_arcs: usize, remaining: usize) -> bool {
    match mode {
        EdgeMapMode::Sparse => false,
        EdgeMapMode::Dense => true,
        EdgeMapMode::Auto => {
            total > 0 && (total + k) * DENSE_DENOM > m_arcs && remaining <= total + k
        }
    }
}

/// The full pre-counted sparse path: degree scatter, prefix sum, then
/// either the dense sweep (if the threshold says so) or the slot-buffer
/// expansion. Returns whether the round ran dense.
fn edge_map_sparse_counted<G: CsrView, Op: FrontierOp>(
    g: &G,
    frontier: &[u32],
    remaining: usize,
    op: &Op,
    mode: EdgeMapMode,
    scratch: &mut EdgeMapScratch,
    next: &mut Vec<u32>,
) -> bool {
    let k = frontier.len();
    // Per-frontier-vertex degrees, then exclusive slot offsets.
    // SAFETY: every slot in 0..k is written by the scatter below.
    unsafe { reuse_uninit(&mut scratch.deg, k) };
    {
        let view = UnsafeSlice::new(scratch.deg.as_mut_slice());
        par_for(k, |i| {
            // SAFETY: disjoint writes.
            unsafe { view.write(i, g.degree(frontier[i])) };
        });
    }
    let total = prefix_sums(&mut scratch.deg);
    // Callers on the small-round fast path have already ruled out dense
    // with the same `(mode, total, k)` inputs, so re-deciding here is
    // equivalent for both entry orders.
    let dense = is_dense(mode, total, k, g.m_arcs(), remaining);
    if dense {
        scratch.dense_rounds += 1;
        edge_map_dense(g, frontier, op, scratch, next);
    } else {
        edge_map_sparse(g, frontier, total, op, scratch, next);
    }
    dense
}

/// Top-down round: claims land in pre-counted slots of the shared
/// buffer, then a pack compacts the winners. Each block streams the
/// covered sub-range of every frontier vertex's neighbor list through
/// [`CsrView::neighbors_in`] — the degree balancing splits *inside* a
/// high-degree vertex's list, and block-coded backends decode only the
/// blocks the sub-range touches.
fn edge_map_sparse<G: CsrView, Op: FrontierOp>(
    g: &G,
    frontier: &[u32],
    total: usize,
    op: &Op,
    scratch: &mut EdgeMapScratch,
    next: &mut Vec<u32>,
) {
    let k = frontier.len();
    // `Auto` stays within the reserved envelope; forced-sparse rounds may
    // grow here (documented on `EdgeMapMode::Sparse`).
    reserve_to(&mut scratch.slots, total);
    // SAFETY: every slot in 0..total is written exactly once below: the
    // blocks partition the slot range, and each slot belongs to exactly
    // one (frontier vertex, arc) pair.
    unsafe { reuse_uninit(&mut scratch.slots, total) };
    {
        let slot_off: &[usize] = &scratch.deg;
        let view = UnsafeSlice::new(scratch.slots.as_mut_slice());
        let blocks = num_blocks(total, SPARSE_GRAIN);
        par_for_grain(blocks, 1, |b| {
            let lo = b * total / blocks;
            let hi = (b + 1) * total / blocks;
            if lo >= hi {
                return;
            }
            // Last frontier index whose slot offset is ≤ lo: the vertex
            // whose arc range covers the block start (blocks split
            // *inside* a high-degree vertex's range — this is the degree
            // balancing).
            let mut i = slot_off[..k].partition_point(|&o| o <= lo) - 1;
            let mut slot = lo;
            while slot < hi {
                let u = frontier[i];
                let u_hi = if i + 1 < k { slot_off[i + 1] } else { total };
                let stop = hi.min(u_hi);
                let base = slot_off[i];
                g.neighbors_in(u, slot - base, stop - base, |j, w| {
                    let s = base + j;
                    let claimed = op.try_claim(u, w);
                    // SAFETY: slot `s` belongs to this block alone.
                    unsafe { view.write(s, if claimed { w } else { EMPTY }) };
                });
                slot = stop;
                i += 1;
            }
        });
    }
    pack_neq_into(&scratch.slots[..total], EMPTY, next);
}

/// Bottom-up round: every still-unclaimed vertex scans its own neighbor
/// list for a frontier member (bitmap test) and claims itself CAS-free,
/// breaking at the first hit. Blocks are balanced by `degree + 1` weight.
fn edge_map_dense<G: CsrView, Op: FrontierOp>(
    g: &G,
    frontier: &[u32],
    op: &Op,
    scratch: &mut EdgeMapScratch,
    next: &mut Vec<u32>,
) {
    let n = g.n();
    let words = n.div_ceil(64);
    scratch.bits.clear();
    scratch.bits.resize(words, 0);
    scratch.claimed.clear();
    scratch.claimed.resize(words, 0);
    {
        let bits = as_atomic_u64(&mut scratch.bits);
        par_for(frontier.len(), |i| {
            let v = frontier[i] as usize;
            bits[v / 64].fetch_or(1 << (v % 64), std::sync::atomic::Ordering::Relaxed);
        });
    }
    {
        let bits: &[u64] = &scratch.bits;
        let claimed = as_atomic_u64(&mut scratch.claimed);
        // Weight-balanced vertex blocks: cumulative `arc_start(v) + v` is
        // strictly increasing, so block boundaries come from one binary
        // search each. A vertex is never split (its scan breaks early),
        // but no block carries more than ~1/B of the total weight.
        let weight = g.m_arcs() + n;
        let blocks = num_blocks(weight, DENSE_GRAIN);
        par_for_grain(blocks, 1, |b| {
            let v_lo = vertex_at_weight(g, b * weight / blocks);
            let v_hi = vertex_at_weight(g, (b + 1) * weight / blocks);
            for w in v_lo..v_hi {
                if !op.wants(w as u32) {
                    continue;
                }
                g.neighbors_while(w as u32, |u| {
                    let in_frontier = bits[u as usize / 64] >> (u as usize % 64) & 1 == 1;
                    if in_frontier && op.claim_unique(u, w as u32) {
                        claimed[w / 64]
                            .fetch_or(1 << (w % 64), std::sync::atomic::Ordering::Relaxed);
                        return false;
                    }
                    true
                });
            }
        });
    }
    pack_bits_into(&scratch.claimed, n, next);
}

/// Smallest `v` with `arc_start(v) + v >= t` (the dense block boundary
/// for weight target `t`).
fn vertex_at_weight<G: CsrView>(g: &G, t: usize) -> usize {
    let (mut lo, mut hi) = (0usize, g.n());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if g.arc_start(mid) + mid < t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Largest `v` with `arc_start(v) <= a` (the vertex whose neighbor list
/// covers flat arc index `a` — zero-degree vertices may follow it).
fn vertex_at_arc<G: CsrView>(g: &G, a: usize) -> usize {
    let (mut lo, mut hi) = (0usize, g.n() + 1);
    // Invariant: arc_start(lo - 1) <= a < arc_start(hi) conceptually;
    // find the partition point of `arc_start(v) <= a`, then step back.
    while lo < hi {
        let mid = (lo + hi) / 2;
        if g.arc_start(mid) <= a {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo - 1
}

/// Visit every arc `(u, w)` of the graph view in parallel, balanced by
/// *arc count*: blocks split inside a vertex's neighbor list, so one
/// high-degree vertex never serializes a block (the skew the old
/// fixed-vertex-count grains suffered). `grain` is the minimum arcs per
/// block. Arc order within a block is ascending; block-to-block ordering
/// is the scheduler's.
pub fn for_arcs_balanced<G, F>(g: &G, grain: usize, f: F)
where
    G: CsrView,
    F: Fn(u32, u32) + Sync,
{
    let m = g.m_arcs();
    if m == 0 {
        return;
    }
    let blocks = num_blocks(m, grain);
    par_for_grain(blocks, 1, |b| {
        let lo = b * m / blocks;
        let hi = (b + 1) * m / blocks;
        if lo >= hi {
            return;
        }
        // Last vertex whose arc range starts at or before `lo`.
        let mut u = vertex_at_arc(g, lo);
        let mut pos = lo;
        while pos < hi {
            let u_start = g.arc_start(u);
            let u_end = g.arc_start(u + 1);
            if u_end <= pos {
                // Zero-degree vertex (or one fully before the block).
                u += 1;
                continue;
            }
            let stop = hi.min(u_end);
            g.neighbors_in(u as u32, pos - u_start, stop - u_start, |_, w| {
                f(u as u32, w);
            });
            pos = stop;
            u += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Build a symmetric CSR from an undirected edge list.
    fn csr(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut offsets = vec![0usize; n + 1];
        let mut arcs = Vec::new();
        for v in 0..n {
            adj[v].sort_unstable();
            arcs.extend_from_slice(&adj[v]);
            offsets[v + 1] = arcs.len();
        }
        (offsets, arcs)
    }

    /// The canonical visit op: claim-by-CAS into a shared ownership array.
    struct Visit<'a> {
        owner: &'a [AtomicU32],
    }

    impl FrontierOp for Visit<'_> {
        fn try_claim(&self, u: u32, w: u32) -> bool {
            self.owner[w as usize]
                .compare_exchange(EMPTY, u, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        }
        fn claim_unique(&self, u: u32, w: u32) -> bool {
            if self.owner[w as usize].load(Ordering::Relaxed) != EMPTY {
                return false;
            }
            self.owner[w as usize].store(u, Ordering::Relaxed);
            true
        }
        fn wants(&self, w: u32) -> bool {
            self.owner[w as usize].load(Ordering::Relaxed) == EMPTY
        }
    }

    /// Full BFS from vertex 0 in the given mode; returns per-level
    /// frontiers (sorted) until exhaustion.
    fn bfs_levels(offsets: &[usize], arcs: &[u32], n: usize, mode: EdgeMapMode) -> Vec<Vec<u32>> {
        let g = RawCsr::new(offsets, arcs);
        let owner: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(EMPTY)).collect();
        owner[0].store(0, Ordering::Relaxed);
        let op = Visit { owner: &owner };
        let mut scratch = EdgeMapScratch::new();
        let mut frontier = vec![0u32];
        let mut next = Vec::new();
        let mut out = Vec::new();
        let mut visited = 1usize;
        while !frontier.is_empty() {
            out.push({
                let mut f = frontier.clone();
                f.sort_unstable();
                f
            });
            edge_map(
                &g,
                &frontier,
                n - visited,
                &op,
                mode,
                &mut scratch,
                &mut next,
            );
            std::mem::swap(&mut frontier, &mut next);
            visited += frontier.len();
        }
        out
    }

    #[test]
    fn sparse_and_dense_agree_on_levels() {
        // A graph with skew: a hub joined to a long path plus extra rungs.
        let mut edges = vec![];
        let n = 500u32;
        for v in 1..n {
            edges.push((0, v)); // hub
        }
        for v in 1..n - 1 {
            edges.push((v, v + 1)); // path among the leaves
        }
        let (offsets, arcs) = csr(n as usize, &edges);
        let sparse = bfs_levels(&offsets, &arcs, n as usize, EdgeMapMode::Sparse);
        let dense = bfs_levels(&offsets, &arcs, n as usize, EdgeMapMode::Dense);
        let auto = bfs_levels(&offsets, &arcs, n as usize, EdgeMapMode::Auto);
        assert_eq!(sparse, dense);
        assert_eq!(sparse, auto);
        assert_eq!(sparse.len(), 2, "hub graph has two levels");
        assert_eq!(sparse[1].len(), n as usize - 1);
    }

    #[test]
    fn path_graph_levels_in_every_mode() {
        let n = 64usize;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let (offsets, arcs) = csr(n, &edges);
        for mode in [EdgeMapMode::Auto, EdgeMapMode::Sparse, EdgeMapMode::Dense] {
            let levels = bfs_levels(&offsets, &arcs, n, mode);
            assert_eq!(levels.len(), n, "{mode:?}");
            for (d, level) in levels.iter().enumerate() {
                assert_eq!(level, &vec![d as u32], "{mode:?} level {d}");
            }
        }
    }

    #[test]
    fn zero_degree_frontier_vertices_are_harmless() {
        let (offsets, arcs) = csr(6, &[(4, 5)]);
        let g = RawCsr::new(&offsets, &arcs);
        let owner: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(EMPTY)).collect();
        for v in [0, 1, 2, 3, 4] {
            owner[v].store(9, Ordering::Relaxed); // frontier members settled
        }
        let op = Visit { owner: &owner };
        let mut scratch = EdgeMapScratch::new();
        let mut next = Vec::new();
        // Mostly isolated vertices plus one with an edge.
        for mode in [EdgeMapMode::Sparse, EdgeMapMode::Dense] {
            owner[5].store(EMPTY, Ordering::Relaxed);
            edge_map(&g, &[0, 1, 2, 3, 4], 1, &op, mode, &mut scratch, &mut next);
            assert_eq!(next, vec![5], "{mode:?}");
        }
    }

    #[test]
    fn empty_frontier_and_empty_graph() {
        let (offsets, arcs) = csr(4, &[]);
        let g = RawCsr::new(&offsets, &arcs);
        let owner: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(EMPTY)).collect();
        let op = Visit { owner: &owner };
        let mut scratch = EdgeMapScratch::new();
        let mut next = vec![7u32];
        let dense = edge_map(&g, &[], 4, &op, EdgeMapMode::Auto, &mut scratch, &mut next);
        assert!(!dense);
        assert!(next.is_empty(), "next must be cleared");
        // Non-empty frontier over an edgeless graph stays sparse & empty.
        let dense = edge_map(
            &g,
            &[0, 1, 2, 3],
            4,
            &op,
            EdgeMapMode::Auto,
            &mut scratch,
            &mut next,
        );
        assert!(!dense, "edgeless graphs must not trigger a dense scan");
        assert!(next.is_empty());
    }

    #[test]
    fn auto_goes_dense_past_the_threshold() {
        // Star: the hub's degree sum is half of all arcs — far past m/20.
        let n = 40u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let (offsets, arcs) = csr(n as usize, &edges);
        let g = RawCsr::new(&offsets, &arcs);
        let owner: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(EMPTY)).collect();
        owner[0].store(0, Ordering::Relaxed);
        let op = Visit { owner: &owner };
        let mut scratch = EdgeMapScratch::new();
        let mut next = Vec::new();
        let dense = edge_map(
            &g,
            &[0],
            n as usize - 1,
            &op,
            EdgeMapMode::Auto,
            &mut scratch,
            &mut next,
        );
        assert!(dense);
        assert_eq!(scratch.dense_rounds(), 1);
        let mut got = next.clone();
        got.sort_unstable();
        assert_eq!(got, (1..n).collect::<Vec<_>>());
    }

    #[test]
    fn claims_are_exclusive_under_contention() {
        // Two frontier hubs share every leaf; each leaf must be claimed
        // exactly once.
        let leaves = 3000u32;
        let mut edges = vec![];
        for v in 2..leaves + 2 {
            edges.push((0, v));
            edges.push((1, v));
        }
        let (offsets, arcs) = csr(leaves as usize + 2, &edges);
        let g = RawCsr::new(&offsets, &arcs);
        let owner: Vec<AtomicU32> = (0..leaves + 2).map(|_| AtomicU32::new(EMPTY)).collect();
        owner[0].store(0, Ordering::Relaxed);
        owner[1].store(1, Ordering::Relaxed);
        let op = Visit { owner: &owner };
        let mut scratch = EdgeMapScratch::new();
        let mut next = Vec::new();
        edge_map(
            &g,
            &[0, 1],
            leaves as usize,
            &op,
            EdgeMapMode::Sparse,
            &mut scratch,
            &mut next,
        );
        let mut got = next.clone();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), next.len(), "a leaf entered the frontier twice");
        assert_eq!(next.len(), leaves as usize);
    }

    #[test]
    fn scratch_capacity_is_deterministic_and_bounded() {
        let n = 200usize;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let (offsets, arcs) = csr(n, &edges);
        let g = RawCsr::new(&offsets, &arcs);
        let mut scratch = EdgeMapScratch::new();
        scratch.reserve(n, arcs.len());
        let bytes = scratch.heap_bytes();
        assert!(bytes >= 12 * n, "reserve must cover deg + slots");
        // Running rounds within the Auto envelope must not grow anything.
        let owner: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(EMPTY)).collect();
        owner[0].store(0, Ordering::Relaxed);
        let op = Visit { owner: &owner };
        let (mut frontier, mut next) = (vec![0u32], Vec::new());
        let mut visited = 1usize;
        while !frontier.is_empty() {
            edge_map(
                &g,
                &frontier,
                n - visited,
                &op,
                EdgeMapMode::Auto,
                &mut scratch,
                &mut next,
            );
            std::mem::swap(&mut frontier, &mut next);
            visited += frontier.len();
        }
        assert_eq!(
            scratch.heap_bytes(),
            bytes,
            "Auto round outgrew the reserve"
        );
    }

    #[test]
    fn for_arcs_balanced_visits_every_arc_once() {
        // Heavy skew: vertex 0 has degree 5000, everyone else a handful.
        let mut edges = vec![];
        for v in 1..5001u32 {
            edges.push((0, v));
        }
        for v in 1..5000u32 {
            edges.push((v, v + 1));
        }
        let (offsets, arcs) = csr(5001, &edges);
        let g = RawCsr::new(&offsets, &arcs);
        let seen: Vec<AtomicU32> = (0..arcs.len()).map(|_| AtomicU32::new(0)).collect();
        let hits = std::sync::atomic::AtomicUsize::new(0);
        for_arcs_balanced(&g, 64, |u, w| {
            // Identify the arc by position: binary-search u's range.
            let range = &arcs[offsets[u as usize]..offsets[u as usize + 1]];
            let idx = offsets[u as usize] + range.partition_point(|&x| x < w);
            seen[idx].fetch_add(1, Ordering::Relaxed);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), arcs.len());
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_arcs_balanced_empty_graph() {
        let (offsets, arcs) = csr(5, &[]);
        let g = RawCsr::new(&offsets, &arcs);
        for_arcs_balanced(&g, 16, |_, _| panic!("no arcs to visit"));
    }

    #[test]
    fn for_arcs_balanced_skips_zero_degree_runs() {
        // Isolated vertices interleaved with connected ones exercise the
        // zero-degree skip inside a block.
        let (offsets, arcs) = csr(9, &[(0, 8), (3, 8), (8, 4)]);
        let g = RawCsr::new(&offsets, &arcs);
        let hits = std::sync::atomic::AtomicUsize::new(0);
        for_arcs_balanced(&g, 1, |u, w| {
            assert!(g.degree(u) > 0 && g.degree(w) > 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), arcs.len());
    }

    #[test]
    fn vertex_at_weight_boundaries_partition() {
        let (offsets, arcs) = csr(6, &[(0, 1), (0, 2), (0, 3), (4, 5)]);
        let g = RawCsr::new(&offsets, &arcs);
        let n = 6;
        let weight = offsets[n] + n;
        let mut prev = 0;
        for b in 0..=8usize {
            let v = vertex_at_weight(&g, b * weight / 8);
            assert!(v >= prev && v <= n);
            prev = v;
        }
        assert_eq!(vertex_at_weight(&g, weight), n);
        assert_eq!(vertex_at_weight(&g, 0), 0);
    }
}
