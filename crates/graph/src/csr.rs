//! Compressed sparse row (CSR) graph representation.
//!
//! The standard layout for static graph algorithms: an `offsets` array of
//! length `n+1` and a flat `edges` array of length `m` (directed arc count;
//! for the undirected graphs used by BCC every edge is stored twice).
//! Neighbor lists of a vertex are contiguous and sorted, enabling cache-
//! friendly scans and binary-searched membership tests.

use crate::types::{NONE, V};

/// A static graph in CSR form. Construct via [`crate::builder`] functions
/// or [`Graph::from_raw_parts`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    edges: Vec<V>,
}

impl Graph {
    /// Build from raw CSR arrays. Panics if the invariants don't hold
    /// (monotone offsets, ids in range).
    pub fn from_raw_parts(offsets: Vec<usize>, edges: Vec<V>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n+1 >= 1");
        assert_eq!(
            *offsets.last().unwrap(),
            edges.len(),
            "offsets must end at m"
        );
        // Both checks fold without early exit, so they vectorise: they read
        // all `n + m` entries of every graph a pooled caller rebuilds.
        assert!(
            offsets
                .iter()
                .zip(&offsets[1..])
                .fold(true, |ok, (a, b)| ok & (a <= b)),
            "offsets must be monotone"
        );
        let n = offsets.len() - 1;
        assert!(
            edges.is_empty() || (edges.iter().fold(0, |hi, &v| hi.max(v)) as usize) < n,
            "edge endpoint out of range"
        );
        let g = Self { offsets, edges };
        debug_assert!(
            g.has_sorted_adjacency(),
            "neighbor lists must be sorted ascending (see has_sorted_adjacency)"
        );
        g
    }

    /// Dissolve into the raw CSR arrays, handing their allocations back to
    /// the caller. Inverse of [`Graph::from_raw_parts`]; lets scratch-pooled
    /// callers (the core engine's `Workspace`) rebuild a graph each solve
    /// without reallocating.
    pub fn into_raw_parts(self) -> (Vec<usize>, Vec<V>) {
        (self.offsets, self.edges)
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (twice the undirected edge count for
    /// symmetric graphs).
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected edges, assuming symmetric storage.
    #[inline]
    pub fn m_undirected(&self) -> usize {
        self.edges.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: V) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbor slice of `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: V) -> &[V] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// CSR offsets (length `n+1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Flat arc array (length `m`).
    #[inline]
    pub fn arcs(&self) -> &[V] {
        &self.edges
    }

    /// The arc index range of `v`'s neighbor list.
    #[inline]
    pub fn arc_range(&self, v: V) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Membership test via binary search (neighbor lists are sorted —
    /// see [`has_sorted_adjacency`](Self::has_sorted_adjacency)).
    pub fn has_edge(&self, u: V, v: V) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// True if every neighbor list is sorted ascending (duplicates
    /// allowed). This is an **invariant** of every graph the builders,
    /// delta layer, and loaders produce, and two consumers rely on it
    /// for correctness: [`has_edge`](Self::has_edge)'s binary search and
    /// the difference encoder of
    /// [`CompressedGraph::from_graph`](crate::compressed::CompressedGraph::from_graph)
    /// (non-negative gaps). [`from_raw_parts`](Self::from_raw_parts)
    /// debug-asserts it; callers constructing CSRs by hand must sort
    /// each list.
    pub fn has_sorted_adjacency(&self) -> bool {
        use fastbcc_primitives::reduce::all;
        all(self.n(), |u| {
            self.neighbors(u as V).windows(2).all(|w| w[0] <= w[1])
        })
    }

    /// Iterate all directed arcs as `(src, dst)` pairs (sequential).
    pub fn iter_arcs(&self) -> impl Iterator<Item = (V, V)> + '_ {
        (0..self.n() as V).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterate undirected edges once each (`u < v`), assuming symmetry.
    pub fn iter_edges(&self) -> impl Iterator<Item = (V, V)> + '_ {
        self.iter_arcs().filter(|&(u, v)| u < v)
    }

    /// Verify symmetric storage: `(u,v)` present iff `(v,u)` present.
    /// `O(m log d)`; intended for tests and debug assertions.
    pub fn is_symmetric(&self) -> bool {
        use fastbcc_primitives::reduce::all;
        all(self.n(), |u| {
            self.neighbors(u as V)
                .iter()
                .all(|&v| self.has_edge(v, u as V))
        })
    }

    /// True if some neighbor list contains `v` itself.
    pub fn has_self_loops(&self) -> bool {
        (0..self.n()).any(|u| self.neighbors(u as V).contains(&(u as V)))
    }

    /// True if some neighbor list has adjacent duplicates (lists are sorted,
    /// so this detects all multi-edges).
    pub fn has_multi_edges(&self) -> bool {
        (0..self.n()).any(|u| self.neighbors(u as V).windows(2).any(|w| w[0] == w[1]))
    }

    /// Heap bytes used by the CSR arrays (for space reporting).
    pub fn bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.edges.len() * std::mem::size_of::<V>()
    }

    /// Heap bytes *reserved* by the CSR arrays (capacity, not length).
    ///
    /// Pooled callers ([`crate::delta::DeltaScratch`]) track this instead
    /// of [`bytes`](Self::bytes): recycled buffers keep slack capacity, and
    /// accounting by length would make allocation totals oscillate as the
    /// larger ping-pong buffer moves between the pool and the live graph.
    pub fn capacity_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.edges.capacity() * std::mem::size_of::<V>()
    }

    /// The vertex with maximum degree, or [`NONE`] for an empty graph.
    pub fn max_degree_vertex(&self) -> V {
        if self.n() == 0 {
            return NONE;
        }
        (0..self.n() as V).max_by_key(|&v| self.degree(v)).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle plus a pendant vertex: 0-1-2-0, 2-3.
    fn paw() -> Graph {
        // arcs sorted per vertex
        Graph::from_raw_parts(vec![0, 2, 4, 7, 8], vec![1, 2, 0, 2, 0, 1, 3, 2])
    }

    #[test]
    fn basic_accessors() {
        let g = paw();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 8);
        assert_eq!(g.m_undirected(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
        assert!(g.is_symmetric());
        assert!(!g.has_self_loops());
        assert!(!g.has_multi_edges());
        assert_eq!(g.max_degree_vertex(), 2);
    }

    #[test]
    fn edge_iterators() {
        let g = paw();
        let arcs: Vec<_> = g.iter_arcs().collect();
        assert_eq!(arcs.len(), 8);
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert!(g.is_symmetric());
        let g0 = Graph::empty(0);
        assert_eq!(g0.n(), 0);
        assert_eq!(g0.max_degree_vertex(), NONE);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn bad_offsets_panic() {
        Graph::from_raw_parts(vec![0, 2, 1, 2], vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        Graph::from_raw_parts(vec![0, 1], vec![5]);
    }

    #[test]
    fn asymmetric_detected() {
        // arc 0->1 without 1->0
        let g = Graph::from_raw_parts(vec![0, 1, 1], vec![1]);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn loops_and_multi_detected() {
        let g = Graph::from_raw_parts(vec![0, 1], vec![0]);
        assert!(g.has_self_loops());
        let g = Graph::from_raw_parts(vec![0, 2, 4], vec![1, 1, 0, 0]);
        assert!(g.has_multi_edges());
    }
}
