//! Batch edge deltas over CSR graphs.
//!
//! [`apply_delta`] builds the next CSR by walking only the vertices the
//! batch touches (`b` = batch size, so at most `2b` of them). Each run of
//! untouched vertices between two touched ones is copied as bytes: one
//! slice copy of its arcs and one shifted copy of its offsets. Only the
//! touched lists are merged, at `O(b log b + Σ touched degrees)`; the rest
//! is `O(n + m)` of memcpy-speed copying. All output buffers come from
//! a pooled [`DeltaScratch`], and the superseded graph's allocations are
//! handed back via [`DeltaScratch::recycle`], so a warm add/delete cycle
//! allocates nothing: the two CSR buffers ping-pong between the scratch
//! and the live graph.
//!
//! The merge is tolerant by construction: deletions of absent edges are
//! ignored, duplicate/present additions are deduplicated, and self-loops
//! never enter the output — the same preprocessing contract as
//! [`crate::builder`].

use crate::csr::Graph;
use crate::types::V;

/// An undirected edge batch: edges to insert and edges to remove.
///
/// Endpoint order within a pair does not matter; both directed arcs are
/// produced internally. A pair appearing in both lists cancels to a no-op
/// when the edge was already present (delete wins first, then re-add).
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    /// Undirected edges to insert (absent ones; present ones are no-ops).
    pub adds: Vec<(V, V)>,
    /// Undirected edges to remove (present ones; absent ones are no-ops).
    pub dels: Vec<(V, V)>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Delta from borrowed slices.
    pub fn from_slices(adds: &[(V, V)], dels: &[(V, V)]) -> Self {
        Self {
            adds: adds.to_vec(),
            dels: dels.to_vec(),
        }
    }

    /// Total number of undirected edge changes requested.
    pub fn len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    /// True when the delta requests no changes.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.dels.is_empty()
    }
}

/// Pooled buffers for [`apply_delta`]: staged directed arcs for both sides
/// of the batch, plus the output CSR arrays of the *previous* application
/// (returned via [`DeltaScratch::recycle`]), reused for the next one.
#[derive(Default)]
pub struct DeltaScratch {
    add_arcs: Vec<(V, V)>,
    del_arcs: Vec<(V, V)>,
    offsets: Vec<usize>,
    arcs: Vec<V>,
}

impl DeltaScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand a superseded graph's CSR allocations back to the pool, making
    /// them the output buffers of the next [`apply_delta`] call.
    pub fn recycle(&mut self, g: Graph) {
        let (offsets, arcs) = g.into_raw_parts();
        if offsets.capacity() > self.offsets.capacity() {
            self.offsets = offsets;
        }
        if arcs.capacity() > self.arcs.capacity() {
            self.arcs = arcs;
        }
    }

    /// Heap bytes currently held by the pooled buffers.
    pub fn heap_bytes(&self) -> usize {
        self.add_arcs.capacity() * std::mem::size_of::<(V, V)>()
            + self.del_arcs.capacity() * std::mem::size_of::<(V, V)>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.arcs.capacity() * std::mem::size_of::<V>()
    }
}

/// Stage both directed arcs of every undirected pair, dropping self-loops,
/// then sort so per-vertex runs are contiguous and ascending.
fn stage_arcs(pairs: &[(V, V)], out: &mut Vec<(V, V)>) {
    out.clear();
    out.reserve(pairs.len() * 2);
    for &(u, v) in pairs {
        if u != v {
            out.push((u, v));
            out.push((v, u));
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Apply an edge batch to `g`, producing the updated graph.
///
/// Cost follows the batch: only the lists of the vertices the batch
/// touches (a source of a staged add or delete arc, at most `2b` of them)
/// are merged; every run of untouched vertices between two touched ones is
/// one `extend_from_slice` of `g.arcs()` plus one loop that shifts its old
/// offsets by the running degree change. A batch that touches every vertex
/// is the same walk with empty runs. What remains `O(n + m)` is copying
/// bytes and [`Graph::from_raw_parts`]' checks, not per-list merging.
///
/// The output preserves every CSR invariant (sorted neighbor lists, no
/// duplicates, no self-loops, symmetric storage for symmetric inputs).
/// Output buffers are drawn from `scratch`; pass the superseded `g` back
/// through [`DeltaScratch::recycle`] afterwards to close the pooling loop.
///
/// # Panics
///
/// If an add has an endpoint `>= g.n()` ("edge endpoint out of range"),
/// whichever of its endpoints it is. Deletions of absent or out-of-range
/// pairs are ignored.
pub fn apply_delta(g: &Graph, delta: &GraphDelta, scratch: &mut DeltaScratch) -> Graph {
    let n = g.n();
    assert!(
        delta
            .adds
            .iter()
            .all(|&(u, v)| (u as usize) < n && (v as usize) < n),
        "edge endpoint out of range"
    );
    stage_arcs(&delta.adds, &mut scratch.add_arcs);
    stage_arcs(&delta.dels, &mut scratch.del_arcs);
    let (adds, dels) = (&scratch.add_arcs, &scratch.del_arcs);
    let (old_offsets, old_arcs) = (g.offsets(), g.arcs());

    let mut offsets = std::mem::take(&mut scratch.offsets);
    let mut arcs = std::mem::take(&mut scratch.arcs);
    offsets.clear();
    offsets.reserve(n + 1);
    arcs.clear();
    // Upper bound on the output arc count; reserving it up front keeps the
    // copies and merges realloc-free even when the batch grows the graph.
    arcs.reserve(g.m() + adds.len());

    let (mut ai, mut di) = (0usize, 0usize);
    offsets.push(0);
    // Vertices `< next` have their lists written; `offsets.len() == next + 1`.
    let mut next = 0usize;
    // Source of staged arc `i`, or `n` once the list is spent.
    let src = |staged: &[(V, V)], i: usize| staged.get(i).map_or(n, |a| a.0 as usize);
    loop {
        // The next touched vertex, or `n` when none is left (delete arcs
        // whose source is `>= n` end the walk too).
        let t = src(adds, ai).min(src(dels, di)).min(n);

        // Untouched run `next..t`: its arcs verbatim, its offsets shifted
        // by the degree change so far (a wrapping two's-complement add).
        let shift = arcs.len().wrapping_sub(old_offsets[next]);
        arcs.extend_from_slice(&old_arcs[old_offsets[next]..old_offsets[t]]);
        offsets.extend(
            old_offsets[next + 1..=t]
                .iter()
                .map(|&o| o.wrapping_add(shift)),
        );
        if t == n {
            break;
        }

        // Touched vertex `t`: its runs of the staged (sorted) arc lists.
        let a_start = ai;
        while ai < adds.len() && adds[ai].0 as usize == t {
            ai += 1;
        }
        let d_start = di;
        while di < dels.len() && dels[di].0 as usize == t {
            di += 1;
        }
        merge_list(
            &old_arcs[old_offsets[t]..old_offsets[t + 1]],
            &adds[a_start..ai],
            &dels[d_start..di],
            &mut arcs,
        );
        offsets.push(arcs.len());
        next = t + 1;
    }
    Graph::from_raw_parts(offsets, arcs)
}

/// Append `old \ dels ∪ adds` (all ascending by target) to `out`,
/// deduplicated. A target in both `dels` and `adds` stays: delete, then
/// re-add, means present.
fn merge_list(old: &[V], add_run: &[(V, V)], del_run: &[(V, V)], out: &mut Vec<V>) {
    let (mut oi, mut aj, mut dj) = (0usize, 0usize, 0usize);
    while oi < old.len() || aj < add_run.len() {
        let next_old = if oi < old.len() { Some(old[oi]) } else { None };
        let next_add = if aj < add_run.len() {
            Some(add_run[aj].1)
        } else {
            None
        };
        let w = match (next_old, next_add) {
            (Some(o), Some(a)) if o <= a => {
                oi += 1;
                if o == a {
                    aj += 1;
                }
                o
            }
            (Some(_), Some(a)) => {
                aj += 1;
                a
            }
            (Some(o), None) => {
                oi += 1;
                o
            }
            (None, Some(a)) => {
                aj += 1;
                a
            }
            (None, None) => unreachable!(),
        };
        // Deletions strike survivors from the old list; advance the
        // del cursor to `w` and drop `w` when it matches — unless the
        // add side also listed it (delete-then-re-add ⇒ "present").
        while dj < del_run.len() && del_run[dj].1 < w {
            dj += 1;
        }
        let deleted = dj < del_run.len() && del_run[dj].1 == w;
        let re_added = next_add == Some(w);
        if !deleted || re_added {
            out.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn graph(n: usize, edges: &[(V, V)]) -> Graph {
        from_edges(n, edges)
    }

    #[test]
    fn add_and_delete_roundtrip() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3)]);
        let d = GraphDelta {
            adds: vec![(3, 4), (0, 2)],
            dels: vec![(1, 2)],
        };
        let mut s = DeltaScratch::new();
        let g2 = apply_delta(&g, &d, &mut s);
        let want = graph(5, &[(0, 1), (2, 3), (3, 4), (0, 2)]);
        assert_eq!(g2, want);
        assert!(g2.is_symmetric());
    }

    #[test]
    fn tolerant_of_noise() {
        let g = graph(4, &[(0, 1), (1, 2)]);
        let d = GraphDelta {
            // duplicate adds, an already-present add, a self-loop, and a
            // delete of an absent edge
            adds: vec![(2, 3), (3, 2), (0, 1), (1, 1)],
            dels: vec![(0, 3)],
        };
        let mut s = DeltaScratch::new();
        let g2 = apply_delta(&g, &d, &mut s);
        assert_eq!(g2, graph(4, &[(0, 1), (1, 2), (2, 3)]));
    }

    #[test]
    fn delete_then_readd_cancels() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let d = GraphDelta {
            adds: vec![(0, 1)],
            dels: vec![(0, 1)],
        };
        let g2 = apply_delta(&g, &d, &mut DeltaScratch::new());
        assert_eq!(g2, g);
    }

    #[test]
    fn empty_delta_copies() {
        let g = graph(4, &[(0, 1), (2, 3)]);
        let g2 = apply_delta(&g, &GraphDelta::new(), &mut DeltaScratch::new());
        assert_eq!(g2, g);
    }

    #[test]
    fn recycle_makes_warm_applies_allocation_free() {
        let g0 = graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut s = DeltaScratch::new();
        let flip = |i: u64| GraphDelta {
            adds: vec![((i % 5) as V, ((i + 1) % 5) as V + 1)],
            dels: vec![(((i + 2) % 5) as V, ((i + 3) % 5) as V + 1)],
        };
        // Warm up until both ping-pong buffers reach their steady-state
        // capacities, then require every later apply to stay put.
        let mut cur = g0;
        for i in 0..6u64 {
            let next = apply_delta(&cur, &flip(i), &mut s);
            s.recycle(std::mem::replace(&mut cur, next));
        }
        // The two CSR buffers ping-pong between scratch and the live
        // graph, so `heap_bytes` may oscillate with period 2; the warm
        // guarantee is that the high-water mark never rises.
        let mut high = s.heap_bytes();
        let next = apply_delta(&cur, &flip(6), &mut s);
        s.recycle(std::mem::replace(&mut cur, next));
        high = high.max(s.heap_bytes());
        for i in 7..11u64 {
            let next = apply_delta(&cur, &flip(i), &mut s);
            s.recycle(std::mem::replace(&mut cur, next));
            assert!(s.heap_bytes() <= high, "warm apply must not grow scratch");
        }
        assert!(cur.is_symmetric());
    }

    #[test]
    fn delta_matches_builder_on_random_batches() {
        use crate::generators::rmat;
        let g0 = rmat(8, 600, 7);
        let mut s = DeltaScratch::new();
        let mut cur = g0.clone();
        let mut live: Vec<(V, V)> = cur.iter_edges().collect();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..10 {
            let n = cur.n() as u64;
            let mut d = GraphDelta::new();
            // Deletions first (drawn from the live set), then additions of
            // genuinely new pairs (normalized u < v, not re-adding a pair
            // deleted in this same batch — those semantics are exercised by
            // `delete_then_readd_cancels`).
            for _ in 0..8 {
                if !live.is_empty() {
                    let i = (rng() % live.len() as u64) as usize;
                    d.dels.push(live.swap_remove(i));
                }
            }
            for _ in 0..8 {
                let (a, b) = ((rng() % n) as V, (rng() % n) as V);
                let (u, v) = (a.min(b), a.max(b));
                if u != v
                    && !cur.has_edge(u, v)
                    && !d.adds.contains(&(u, v))
                    && !d.dels.iter().any(|&(x, y)| (x.min(y), x.max(y)) == (u, v))
                {
                    d.adds.push((u, v));
                    live.push((u, v));
                }
            }
            let next = apply_delta(&cur, &d, &mut s);
            let want = from_edges(cur.n(), &live);
            assert_eq!(next, want);
            s.recycle(std::mem::replace(&mut cur, next));
        }
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn add_with_one_endpoint_out_of_range_panics() {
        let g = graph(4, &[(0, 1)]);
        let d = GraphDelta::from_slices(&[(2, 4)], &[]);
        apply_delta(&g, &d, &mut DeltaScratch::new());
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn add_with_both_endpoints_out_of_range_panics() {
        let g = graph(4, &[(0, 1)]);
        let d = GraphDelta::from_slices(&[(5, 4)], &[]);
        apply_delta(&g, &d, &mut DeltaScratch::new());
    }

    /// A random graph on `1..40` vertices, a random batch on it (adds in
    /// range, deletions up to two ids past it), and four coins that force
    /// in the walk's edge cases.
    fn arb_case() -> impl Strategy<
        Value = (
            usize,
            Vec<(V, V)>,
            Vec<(V, V)>,
            Vec<(V, V)>,
            (bool, bool, bool, bool),
        ),
    > {
        (1usize..40).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n as V, 0..n as V), 0..60),
                proptest::collection::vec((0..n as V, 0..n as V), 0..12),
                proptest::collection::vec((0..n as V + 2, 0..n as V + 2), 0..12),
                (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// `apply_delta` is the builder of the edited edge list: the old
        /// edges minus every deleted pair, plus every added pair (so a
        /// pair both deleted and added is present), with self-loops and
        /// duplicates dropped and out-of-range deletions ignored.
        #[test]
        fn apply_delta_is_the_builder_of_the_edited_edge_list(
            (n, edges, mut adds, mut dels, (ends, empty, readd, all)) in arb_case()
        ) {
            let g = from_edges(n, &edges);
            let last = (n - 1) as V;
            if ends {
                // The first and last vertex, and a self-loop on the last.
                adds.extend([(last, 0), (last, last)]);
            }
            if empty {
                // Empty one vertex's list (if no add refills it).
                let v = edges.first().map_or(0, |e| e.0);
                dels.extend(g.neighbors(v).iter().map(|&w| (w, v)));
            }
            if readd {
                if let Some(&(u, v)) = edges.last() {
                    dels.push((u, v));
                    adds.push((v, u));
                }
            }
            if all {
                // Every vertex touched: runs of untouched vertices are empty.
                for v in 0..n {
                    let e = (v as V, ((v + 1) % n) as V);
                    if v % 2 == 0 { adds.push(e) } else { dels.push(e) }
                }
            }
            // Duplicates in both orientations.
            for side in [&mut adds, &mut dels] {
                if let Some(&(u, v)) = side.first() {
                    side.extend([(v, u), (u, v)]);
                }
            }

            let gone: BTreeSet<(V, V)> = dels.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            let mut want: Vec<(V, V)> = g.iter_edges().filter(|e| !gone.contains(e)).collect();
            want.extend(&adds);
            let got = apply_delta(&g, &GraphDelta { adds, dels }, &mut DeltaScratch::new());
            prop_assert_eq!(got, from_edges(n, &want));
        }
    }
}
