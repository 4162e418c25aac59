//! Postprocessing of the `O(n)` BCC representation: explicit BCC vertex
//! sets, articulation points, bridges, largest-BCC statistics, and the
//! canonical form used to compare algorithms.
//!
//! Per-vertex BCC membership has one tally, [`bcc_membership_counts`]:
//! a vertex is an articulation point iff it belongs to at least two BCCs.
//! The block–cut forest ([`crate::block_cut_tree::block_cut_tree`]) takes
//! its cut nodes from the same tally, in `O(n)` work.
//!
//! A BCC in the representation is a label class `{v : l[v] = L}` together
//! with its component head (when assigned). Vertex sets identify BCCs
//! uniquely because two distinct BCCs share at most one vertex (Fact 4.1).

use crate::algo::BccResult;
use fastbcc_graph::{NONE, V};
use fastbcc_primitives::pack::pack_index;

/// Explicit vertex sets of every BCC, canonicalized: each BCC sorted
/// ascending, BCCs sorted lexicographically. Suitable for equality
/// comparison across algorithms.
pub fn canonical_bccs(r: &BccResult) -> Vec<Vec<V>> {
    let n = r.labels.len();
    let mut groups: std::collections::HashMap<u32, Vec<V>> = std::collections::HashMap::new();
    for v in 0..n {
        let l = r.labels[v];
        if r.is_bcc_label(l) {
            groups.entry(l).or_default().push(v as V);
        }
    }
    for (l, members) in groups.iter_mut() {
        let h = r.head[*l as usize];
        if h != NONE {
            members.push(h);
        }
        members.sort_unstable();
        members.dedup();
    }
    let mut out: Vec<Vec<V>> = groups.into_values().collect();
    out.sort_unstable();
    out
}

/// Number of BCCs each vertex belongs to (0 for isolated vertices): the
/// one cut/membership tally, which [`articulation_points`] and
/// [`crate::block_cut_tree::block_cut_tree`] read their cut test
/// (`count >= 2`) from. One plain pass: a vertex is in its own label class
/// (when that is a real BCC) and in every label it heads.
pub fn bcc_membership_counts(r: &BccResult) -> Vec<u32> {
    let n = r.labels.len();
    let mut counts = vec![0u32; n];
    for v in 0..n {
        if r.is_bcc_label(r.labels[v]) {
            counts[v] += 1;
        }
        // A headed label always has an edge, so it is a BCC label.
        let h = r.head[v];
        if h != NONE {
            counts[h as usize] += 1;
        }
    }
    counts
}

/// Articulation points: vertices belonging to ≥ 2 BCCs (Lemma 4.4 ties
/// this to being a BCC head, but membership counting also handles roots).
pub fn articulation_points(r: &BccResult) -> Vec<V> {
    let count = bcc_membership_counts(r);
    pack_index(count.len(), |v| count[v] >= 2)
}

/// Bridges: the blocks that are a single edge — label classes of size 1
/// with a head. Returned as `(head, member)` pairs.
pub fn bridges(r: &BccResult) -> Vec<(V, V)> {
    let n = r.labels.len();
    fastbcc_primitives::pack::pack_map(
        n,
        |u| r.labels[u] == u as u32 && r.label_count[u] == 1 && r.head[u] != NONE,
        |u| (r.head[u], u as V),
    )
}

/// Size of the largest BCC (vertex count, head included) — the `|BCC₁|%`
/// column of Tab. 2 divides this by `n`.
pub fn largest_bcc_size(r: &BccResult) -> usize {
    let n = r.labels.len();
    fastbcc_primitives::reduce::reduce_with(
        n,
        0usize,
        |l| {
            if r.is_bcc_label(l as u32) {
                r.label_count[l] as usize + (r.head[l] != NONE) as usize
            } else {
                0
            }
        },
        |a, b| a.max(b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{fast_bcc, BccOpts};
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::Graph;

    fn result(g: &Graph) -> BccResult {
        fast_bcc(g, BccOpts::default())
    }

    #[test]
    fn canonical_bccs_windmill() {
        let g = windmill(3);
        let got = canonical_bccs(&result(&g));
        let want = vec![vec![0, 1, 2], vec![0, 3, 4], vec![0, 5, 6]];
        assert_eq!(got, want);
    }

    #[test]
    fn canonical_bccs_path_and_cycle() {
        let g = path(4);
        assert_eq!(
            canonical_bccs(&result(&g)),
            vec![vec![0, 1], vec![1, 2], vec![2, 3]]
        );
        let g = cycle(5);
        assert_eq!(canonical_bccs(&result(&g)), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn articulation_points_known_graphs() {
        assert_eq!(articulation_points(&result(&windmill(4))), vec![0]);
        assert_eq!(articulation_points(&result(&path(5))), vec![1, 2, 3]);
        assert_eq!(articulation_points(&result(&cycle(9))), Vec::<V>::new());
        assert_eq!(articulation_points(&result(&star(6))), vec![0]);
        // Barbell(4, 2): articulation points are the two clique attachment
        // vertices and the middle bridge vertex (vertex 8).
        let mut ap = articulation_points(&result(&barbell(4, 2)));
        ap.sort_unstable();
        assert_eq!(ap, vec![3, 4, 8]);
    }

    #[test]
    fn bridges_known_graphs() {
        let mut b = bridges(&result(&path(4)));
        b.iter_mut().for_each(|e| {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        });
        b.sort_unstable();
        assert_eq!(b, vec![(0, 1), (1, 2), (2, 3)]);

        assert!(bridges(&result(&cycle(6))).is_empty());
        assert!(bridges(&result(&complete(5))).is_empty());

        // Barbell(4,1): the single clique-to-clique edge is the bridge.
        let b = bridges(&result(&barbell(4, 1)));
        assert_eq!(b.len(), 1);
        let (x, y) = b[0];
        let (x, y) = (x.min(y), x.max(y));
        assert_eq!((x, y), (3, 4));
    }

    #[test]
    fn star_bridges_are_all_edges() {
        let g = star(7);
        assert_eq!(bridges(&result(&g)).len(), 6);
    }

    #[test]
    fn membership_counts() {
        let g = windmill(5);
        let c = bcc_membership_counts(&result(&g));
        assert_eq!(c[0], 5); // center in all 5 triangles
        for v in 1..g.n() {
            assert_eq!(c[v], 1);
        }
    }

    #[test]
    fn largest_bcc() {
        let g = barbell(6, 3);
        assert_eq!(largest_bcc_size(&result(&g)), 6);
        let g = disjoint_union(&[&complete(8), &cycle(5)]);
        assert_eq!(largest_bcc_size(&result(&g)), 8);
        assert_eq!(largest_bcc_size(&result(&Graph::empty(4))), 0);
    }

    #[test]
    fn isolated_vertices_have_no_membership() {
        let g = disjoint_union(&[&cycle(3), &Graph::empty(3)]);
        let c = bcc_membership_counts(&result(&g));
        assert_eq!(&c[3..], &[0, 0, 0]);
        assert!(articulation_points(&result(&g)).is_empty());
    }
}
