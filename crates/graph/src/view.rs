//! `GraphView` — the backend-generic graph contract of the pipeline.
//!
//! Every solve/query layer above this crate (edgeMap frontiers, LDD,
//! connectivity, the BCC engine, the serving rebuilder, the bench
//! harness) is generic over this trait instead of assuming the in-RAM
//! `Vec<usize>`/`Vec<V>` CSR of [`Graph`](crate::Graph). Three backends
//! implement it:
//!
//! * [`Graph`](crate::Graph) — the flat CSR (offsets + arc slices;
//!   zero-cost decode);
//! * [`crate::compressed::CompressedGraph`] — varint/delta-encoded
//!   difference-sorted adjacency in fixed-size blocks (Ligra+/GBBS
//!   style), decoded per-block inside the hot loops;
//! * [`crate::mmap::MappedGraph`] — either layout loaded zero-copy from
//!   the validated on-disk snapshot format via `mmap`.
//!
//! `GraphView` extends the low-level [`CsrView`] contract that
//! `fastbcc-primitives::edgemap` consumes (that crate sits *below* this
//! one, so the streaming-decode core lives there) with the graph-level
//! conveniences the solve layers need: undirected edge counts, arc
//! ranges, whole-neighbor-list visits, membership tests, and space
//! reporting. All methods are generic, so each backend monomorphizes its
//! own copies of the hot loops — no virtual dispatch per neighbor.
//!
//! # Invariants
//!
//! Implementations must present neighbor lists **sorted ascending**
//! (duplicates allowed — multi-edges). The compressed backend's
//! difference encoder relies on this to emit non-negative deltas, and
//! [`has_edge`](GraphView::has_edge) relies on it to stop scanning early;
//! see [`Graph::has_sorted_adjacency`](crate::Graph::has_sorted_adjacency).

use crate::types::V;
pub use fastbcc_primitives::edgemap::CsrView;

/// Backend-generic read-only graph: [`CsrView`] plus the graph-level
/// surface the solve and query layers use. See the [module docs](self)
/// for the backend list and the sorted-adjacency invariant.
pub trait GraphView: CsrView {
    /// Short human-readable backend tag (`"flat"`, `"compressed"`, …) for
    /// bench rows and logs.
    fn backend_name(&self) -> &'static str;

    /// Number of undirected edges, assuming symmetric storage.
    #[inline]
    fn m_undirected(&self) -> usize {
        self.m_arcs() / 2
    }

    /// The arc index range of `v`'s neighbor list.
    #[inline]
    fn arc_range(&self, v: V) -> std::ops::Range<usize> {
        self.arc_start(v as usize)..self.arc_start(v as usize + 1)
    }

    /// Membership test. Neighbor lists are sorted, so the scan stops at
    /// the first neighbor `> v`; backends with random access (the flat
    /// CSR) override with a binary search.
    fn has_edge(&self, u: V, v: V) -> bool {
        let mut found = false;
        self.neighbors_while(u, |w| {
            if w >= v {
                found = w == v;
                return false;
            }
            true
        });
        found
    }

    /// Visit every undirected edge once (`u < w`, assuming symmetric
    /// storage), sequentially in ascending `(u, w)` order.
    fn for_edges<F: FnMut(V, V)>(&self, mut f: F) {
        for u in 0..self.n() as V {
            self.neighbors_in(u, 0, self.degree(u), |_, w| {
                if u < w {
                    f(u, w);
                }
            });
        }
    }

    /// Heap (or mapped) bytes holding the graph, for space reporting.
    fn bytes(&self) -> usize;

    /// Bytes *reserved* by the backend (capacity, not length). Equals
    /// [`bytes`](GraphView::bytes) for backends without slack (mmap).
    fn capacity_bytes(&self) -> usize {
        self.bytes()
    }
}

impl CsrView for crate::csr::Graph {
    #[inline]
    fn n(&self) -> usize {
        Self::n(self)
    }

    #[inline]
    fn m_arcs(&self) -> usize {
        self.m()
    }

    #[inline]
    fn arc_start(&self, v: usize) -> usize {
        self.offsets()[v]
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        Self::degree(self, v)
    }

    #[inline]
    fn neighbors_in<F: FnMut(usize, u32)>(&self, v: u32, lo: usize, hi: usize, mut f: F) {
        for (j, &w) in self.neighbors(v)[lo..hi].iter().enumerate() {
            f(lo + j, w);
        }
    }

    #[inline]
    fn neighbors_while<F: FnMut(u32) -> bool>(&self, v: u32, mut f: F) {
        for &w in self.neighbors(v) {
            if !f(w) {
                break;
            }
        }
    }
}

impl GraphView for crate::csr::Graph {
    #[inline]
    fn backend_name(&self) -> &'static str {
        "flat"
    }

    #[inline]
    fn m_undirected(&self) -> usize {
        Self::m_undirected(self)
    }

    #[inline]
    fn has_edge(&self, u: V, v: V) -> bool {
        Self::has_edge(self, u, v)
    }

    #[inline]
    fn bytes(&self) -> usize {
        Self::bytes(self)
    }

    #[inline]
    fn capacity_bytes(&self) -> usize {
        Self::capacity_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::*;

    #[test]
    fn flat_view_agrees_with_inherent_accessors() {
        let g = barbell(5, 4);
        assert_eq!(CsrView::n(&g), g.n());
        assert_eq!(g.m_arcs(), g.m());
        assert_eq!(GraphView::m_undirected(&g), g.m_undirected());
        for v in 0..g.n() as V {
            assert_eq!(CsrView::degree(&g, v), g.degree(v));
            assert_eq!(GraphView::arc_range(&g, v), g.arc_range(v));
            let mut got = Vec::new();
            g.for_neighbors(v, |w| got.push(w));
            assert_eq!(got, g.neighbors(v));
            let mut ranged = Vec::new();
            let d = g.degree(v);
            g.neighbors_in(v, d / 2, d, |j, w| ranged.push((j, w)));
            for (j, w) in ranged {
                assert_eq!(g.neighbors(v)[j], w);
                assert!(j >= d / 2 && j < d);
            }
        }
        let mut edges = Vec::new();
        g.for_edges(|u, w| edges.push((u, w)));
        assert_eq!(edges, g.iter_edges().collect::<Vec<_>>());
    }

    #[test]
    fn default_has_edge_matches_binary_search() {
        let g = windmill(9);
        // Route through the default (scan-based) implementation by
        // erasing the override behind a generic helper.
        fn scan_has_edge<G: GraphView>(g: &G, u: V, v: V) -> bool {
            let mut found = false;
            g.neighbors_while(u, |w| {
                if w >= v {
                    found = w == v;
                    return false;
                }
                true
            });
            found
        }
        for u in 0..g.n() as V {
            for v in 0..g.n() as V {
                assert_eq!(scan_has_edge(&g, u, v), g.has_edge(u, v), "({u},{v})");
            }
        }
    }
}
