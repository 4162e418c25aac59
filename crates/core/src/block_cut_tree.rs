//! Block–cut tree construction from the `O(n)` BCC representation.
//!
//! The block–cut tree (Harary–Prins) is the canonical downstream structure
//! of biconnectivity: one node per BCC ("block"), one node per articulation
//! point, and an edge whenever the articulation point belongs to the block.
//! It is a forest (one tree per connected component that contains at least
//! one edge) and drives the applications the paper's introduction cites —
//! planarity testing, centrality computation, network reliability.
//!
//! Construction is a pure postprocessing pass over [`BccResult`]. The
//! forest itself (`forest`, which [`crate::query::BccIndex::new`] builds
//! on) is `O(n)` work: one sequential pass for the cut flags, then
//! parallel packs and parent lookups. [`block_cut_tree`] adds an edge
//! list sorted with a sequential `sort_unstable`, so it costs
//! `O(n log n)` work and span; the `O(n)` path is `BccIndex::new`.

use crate::algo::BccResult;
use crate::postprocess::cut_flags;
use fastbcc_graph::{NONE, V};
use fastbcc_primitives::pack::{pack_index, pack_map};
use fastbcc_primitives::par::par_for;
use fastbcc_primitives::slice::{uninit_vec, UnsafeSlice};

/// A node of the block–cut tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BcNode {
    /// A biconnected component, identified by its label (a vertex id).
    Block(u32),
    /// An articulation point (vertex id).
    Cut(V),
}

/// The block–cut forest of a graph.
pub struct BlockCutTree {
    /// All block nodes (labels of real BCCs), ascending.
    pub blocks: Vec<u32>,
    /// All cut nodes (articulation points), ascending.
    pub cuts: Vec<V>,
    /// Edges `(block label, articulation vertex)`, one per non-root parent
    /// pointer of the forest; sorted.
    pub edges: Vec<(u32, V)>,
    /// CSR offsets of the cut-side adjacency: the blocks containing the cut
    /// vertex `cuts[i]` are `cut_adj[cut_offsets[i] .. cut_offsets[i + 1]]`.
    /// Length `cuts.len() + 1`.
    pub cut_offsets: Vec<u32>,
    /// Block labels grouped by cut vertex (the arcs of the cut-side CSR),
    /// ascending within each group.
    pub cut_adj: Vec<u32>,
}

impl BlockCutTree {
    /// Rank of `v` in the (ascending) cut-vertex list, or `None` when `v`
    /// is not an articulation point. `O(log #cuts)`.
    #[inline]
    pub fn cut_rank(&self, v: V) -> Option<usize> {
        self.cuts.binary_search(&v).ok()
    }

    /// Degree of a cut vertex in the tree = number of blocks it belongs to.
    /// `O(log #cuts)` via the cut-side CSR offsets (0 for non-cut vertices).
    pub fn cut_degree(&self, v: V) -> usize {
        match self.cut_rank(v) {
            Some(i) => (self.cut_offsets[i + 1] - self.cut_offsets[i]) as usize,
            None => 0,
        }
    }

    /// The labels of every block containing the cut vertex `v` (empty for
    /// non-cut vertices). `O(log #cuts)`.
    pub fn blocks_of_cut(&self, v: V) -> &[u32] {
        match self.cut_rank(v) {
            Some(i) => {
                &self.cut_adj[self.cut_offsets[i] as usize..self.cut_offsets[i + 1] as usize]
            }
            None => &[],
        }
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.blocks.len() + self.cuts.len()
    }

    /// Verify the defining forest property: #edges = #nodes − #trees, and
    /// acyclicity via union–find. Panics on violation (test helper).
    pub fn verify_forest(&self) {
        use std::collections::HashMap;
        let mut id: HashMap<BcNode, u32> = HashMap::new();
        for &b in &self.blocks {
            let next = id.len() as u32;
            id.insert(BcNode::Block(b), next);
        }
        for &c in &self.cuts {
            let next = id.len() as u32;
            id.insert(BcNode::Cut(c), next);
        }
        let mut uf = fastbcc_connectivity::SeqUnionFind::new(id.len());
        for &(b, c) in &self.edges {
            let x = id[&BcNode::Block(b)];
            let y = id[&BcNode::Cut(c)];
            assert!(uf.unite(x, y), "block-cut tree has a cycle at ({b}, {c})");
        }
    }
}

/// The block–cut forest as parent pointers, read off the result
/// representation. Nodes `0..blocks.len()` are the blocks in ascending
/// label order; the cut nodes follow in ascending vertex order.
///
/// Every BCC is a label class `L` plus its head `head[L]`, the tree parent
/// of the class's top vertex, so each forest edge `(block L, cut c)` has
/// exactly one of two forms: `c` is in `L`'s class, or `c` is `L`'s head.
/// Each edge is therefore exactly one parent pointer:
/// - block `L` hangs under the cut node of `head[L]` when that head is a
///   cut, and is a root otherwise;
/// - cut `c` hangs under the block of `labels[c]` when that label is a BCC
///   label, and is a root otherwise.
///
/// This holds for any valid `(labels, head)`, including results that
/// [`crate::engine::BccEngine::apply_batch`] maintains.
pub(crate) struct Forest {
    /// Block labels, ascending.
    pub blocks: Vec<u32>,
    /// Articulation points, ascending.
    pub cuts: Vec<V>,
    /// Block node of label `l`; `NONE` when `l` is not a BCC label.
    pub block_rank: Vec<u32>,
    /// Rank of `v` in `cuts`; `NONE` for non-articulation vertices.
    pub cut_id: Vec<u32>,
    /// Parent node per node; `NONE` at the roots.
    pub parent: Vec<u32>,
}

/// Derive the [`Forest`] from a BCC result: `O(n)` work (the cut flags
/// are one sequential pass, the rest `O(log n)` span).
pub(crate) fn forest(r: &BccResult) -> Forest {
    let n = r.labels.len();
    let cut = cut_flags(r);
    let cuts: Vec<V> = pack_index(n, |v| cut[v]);
    let blocks: Vec<u32> = pack_index(n, |l| r.is_bcc_label(l as u32));
    let (nb, nc) = (blocks.len(), cuts.len());

    let mut block_rank = vec![NONE; n];
    {
        let view = UnsafeSlice::new(&mut block_rank);
        let blocks = &blocks;
        // SAFETY: block labels are distinct vertices.
        par_for(nb, |i| unsafe { view.write(blocks[i] as usize, i as u32) });
    }
    let mut cut_id = vec![NONE; n];
    {
        let view = UnsafeSlice::new(&mut cut_id);
        let cuts = &cuts;
        // SAFETY: cut vertices are distinct.
        par_for(nc, |i| unsafe { view.write(cuts[i] as usize, i as u32) });
    }

    // SAFETY: the loop below writes every node before use.
    let mut parent: Vec<u32> = unsafe { uninit_vec(nb + nc) };
    {
        let view = UnsafeSlice::new(&mut parent);
        let (blocks, cuts, block_rank, cut_id) = (&blocks, &cuts, &block_rank, &cut_id);
        par_for(nb + nc, |x| {
            let p = if x < nb {
                let h = r.head[blocks[x] as usize];
                if h != NONE && cut_id[h as usize] != NONE {
                    nb as u32 + cut_id[h as usize]
                } else {
                    NONE
                }
            } else {
                block_rank[r.labels[cuts[x - nb] as usize] as usize]
            };
            // SAFETY: node x written exactly once.
            unsafe { view.write(x, p) };
        });
    }

    Forest {
        blocks,
        cuts,
        block_rank,
        cut_id,
        parent,
    }
}

/// Build the block–cut forest from a BCC result: `O(n log n)` work and
/// span for the sorted edge list.
pub fn block_cut_tree(r: &BccResult) -> BlockCutTree {
    let Forest {
        blocks,
        cuts,
        cut_id,
        parent,
        ..
    } = forest(r);
    let nb = blocks.len();

    // One edge per non-root parent pointer.
    let mut edges: Vec<(u32, V)> = pack_map(
        parent.len(),
        |x| parent[x] != NONE,
        |x| {
            let p = parent[x] as usize;
            if x < nb {
                (blocks[x], cuts[p - nb])
            } else {
                (blocks[p], cuts[x - nb])
            }
        },
    );
    edges.sort_unstable();

    // Cut-side CSR: group the edges by cut rank with the shared parallel
    // counting sort. Keeps `cut_degree` a two-load offset difference
    // instead of an `O(#edges)` scan per call.
    let by_rank: Vec<(usize, u32)> = edges
        .iter()
        .map(|&(b, c)| (cut_id[c as usize] as usize, b))
        .collect();
    let (grouped, offsets) =
        fastbcc_primitives::sort::counting_sort_by(&by_rank, cuts.len(), |&(r, _)| r);
    // (The sort clamps its bucket count to >= 1; with no cuts the CSR is
    // the single sentinel offset.)
    let cut_offsets: Vec<u32> = if cuts.is_empty() {
        vec![0]
    } else {
        offsets.iter().map(|&o| o as u32).collect()
    };
    let cut_adj: Vec<u32> = grouped.iter().map(|&(_, b)| b).collect();

    BlockCutTree {
        blocks,
        cuts,
        edges,
        cut_offsets,
        cut_adj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{fast_bcc, BccOpts};
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::Graph;

    fn tree_of(g: &Graph) -> BlockCutTree {
        block_cut_tree(&fast_bcc(g, BccOpts::default()))
    }

    #[test]
    fn windmill_is_a_star() {
        let t = tree_of(&windmill(5));
        assert_eq!(t.blocks.len(), 5);
        assert_eq!(t.cuts, vec![0]);
        assert_eq!(t.edges.len(), 5);
        assert_eq!(t.cut_degree(0), 5);
        t.verify_forest();
    }

    #[test]
    fn path_alternates_blocks_and_cuts() {
        let n = 8;
        let t = tree_of(&path(n));
        assert_eq!(t.blocks.len(), n - 1); // each edge a block
        assert_eq!(t.cuts.len(), n - 2); // internal vertices
        assert_eq!(t.edges.len(), 2 * (n - 2)); // each cut joins 2 blocks
        t.verify_forest();
    }

    #[test]
    fn biconnected_graph_single_block() {
        for g in [cycle(9), complete(7), petersen()] {
            let t = tree_of(&g);
            assert_eq!(t.blocks.len(), 1);
            assert!(t.cuts.is_empty());
            assert!(t.edges.is_empty());
            t.verify_forest();
        }
    }

    #[test]
    fn barbell_shape() {
        // clique - cut - bridge-block - cut - clique
        let t = tree_of(&barbell(4, 1));
        assert_eq!(t.blocks.len(), 3);
        assert_eq!(t.cuts.len(), 2);
        assert_eq!(t.edges.len(), 4);
        t.verify_forest();
    }

    #[test]
    fn forest_property_on_disconnected() {
        let g = disjoint_union(&[&windmill(3), &path(5), &cycle(4), &Graph::empty(3)]);
        let t = tree_of(&g);
        t.verify_forest();
        // Components: windmill tree (3 blocks + 1 cut), path tree
        // (4 blocks + 3 cuts), cycle (1 block), isolated vertices (none).
        assert_eq!(t.blocks.len(), 3 + 4 + 1);
        assert_eq!(t.cuts.len(), 1 + 3);
    }

    #[test]
    fn cut_csr_mirrors_the_edge_list() {
        for g in [
            windmill(5),
            barbell(4, 2),
            clique_chain(5, 4),
            disjoint_union(&[&windmill(3), &path(6), &cycle(4)]),
        ] {
            let t = tree_of(&g);
            assert_eq!(t.cut_offsets.len(), t.cuts.len() + 1);
            assert_eq!(*t.cut_offsets.last().unwrap() as usize, t.edges.len());
            assert_eq!(t.cut_adj.len(), t.edges.len());
            for (i, &c) in t.cuts.iter().enumerate() {
                assert_eq!(t.cut_rank(c), Some(i));
                // O(#edges) oracle the CSR replaced.
                let want: Vec<u32> = t
                    .edges
                    .iter()
                    .filter(|&&(_, x)| x == c)
                    .map(|&(b, _)| b)
                    .collect();
                assert_eq!(t.blocks_of_cut(c), &want[..], "cut {c}");
                assert_eq!(t.cut_degree(c), want.len());
            }
            // Non-cut vertices: degree 0, empty block list.
            for v in 0..g.n() as V {
                if t.cut_rank(v).is_none() {
                    assert_eq!(t.cut_degree(v), 0);
                    assert!(t.blocks_of_cut(v).is_empty());
                }
            }
        }
    }

    #[test]
    fn node_and_edge_counts_satisfy_forest_equation() {
        // For each connected component with ≥1 edge, the block-cut tree is
        // a tree: edges = nodes - 1. Check aggregate over a mixture.
        let g = disjoint_union(&[&clique_chain(4, 3), &star(6)]);
        let t = tree_of(&g);
        t.verify_forest();
        let trees = 2; // one per non-trivial component
        assert_eq!(t.edges.len(), t.node_count() - trees);
    }
}
