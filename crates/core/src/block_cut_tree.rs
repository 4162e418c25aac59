//! The block–cut forest (Harary–Prins) of the `O(n)` BCC representation,
//! as parent pointers: one node per BCC ("block") and per articulation
//! point, and an edge whenever the articulation point belongs to the block.
//! It drives the applications the paper's introduction cites (planarity,
//! centrality, network reliability) and [`crate::query::BccIndex`]'s path
//! queries. [`block_cut_tree`] reads it off a [`BccResult`] in `O(n)` work.

use crate::algo::BccResult;
use crate::postprocess::bcc_membership_counts;
use fastbcc_graph::{NONE, V};
use fastbcc_primitives::pack::pack_index;
use fastbcc_primitives::par::par_for;
use fastbcc_primitives::slice::{uninit_vec, UnsafeSlice};

/// The block–cut forest as parent pointers: nodes `0..blocks.len()` are
/// the blocks in ascending label order, then the cuts in ascending vertex
/// order.
///
/// A BCC is a label class `L` plus its head `head[L]`, the tree parent of
/// the class's top vertex, so each forest edge `(block L, cut c)` has `c`
/// in `L`'s class or `c` as `L`'s head, and is exactly one parent pointer:
/// block `L` hangs under the cut node of `head[L]` when that head is a cut
/// (else it is a root), and cut `c` under the block of `labels[c]` when
/// that label is a BCC label (else it is a root). This holds for any valid
/// `(labels, head)`, including results that
/// [`crate::engine::BccEngine::apply_batch`] maintains.
pub struct BlockCutTree {
    /// Block labels, ascending.
    pub blocks: Vec<u32>,
    /// Articulation points, ascending.
    pub cuts: Vec<V>,
    /// Block node of label `l`; `NONE` when `l` is not a BCC label.
    pub(crate) block_rank: Vec<u32>,
    /// Rank of `v` in `cuts`; `NONE` for non-articulation vertices.
    pub(crate) cut_id: Vec<u32>,
    /// Parent node per node; `NONE` at the roots.
    pub parent: Vec<u32>,
}

impl BlockCutTree {
    /// Number of forest nodes (blocks plus cuts).
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }
}

/// Turn `rank` into the rank table of `ids`: `NONE` everywhere but at
/// `ids[i]`, which holds `i`. `ids` are distinct and below `rank.len()`.
fn rank_table(mut rank: Vec<u32>, ids: &[u32]) -> Vec<u32> {
    rank.fill(NONE);
    let view = UnsafeSlice::new(&mut rank);
    // SAFETY: distinct in-bounds ids, so each slot is written at most once.
    par_for(ids.len(), |i| unsafe {
        view.write(ids[i] as usize, i as u32)
    });
    rank
}

/// Derive the [`BlockCutTree`] from a BCC result: `O(n)` work. The cut
/// tally ([`crate::postprocess::bcc_membership_counts`]) is one sequential
/// pass; the packs and the parent lookups have `O(log n)` span.
pub fn block_cut_tree(r: &BccResult) -> BlockCutTree {
    let n = r.labels.len();
    let count = bcc_membership_counts(r);
    let cuts: Vec<V> = pack_index(n, |v| count[v] >= 2);
    let blocks: Vec<u32> = pack_index(n, |l| r.is_bcc_label(l as u32));
    let (nb, nc) = (blocks.len(), cuts.len());
    // The tally's buffer becomes the cut rank table: one fresh array less.
    let cut_id = rank_table(count, &cuts);
    let block_rank = rank_table(vec![0; n], &blocks);

    // SAFETY: the loop below writes every node before use.
    let mut parent: Vec<u32> = unsafe { uninit_vec(nb + nc) };
    let view = UnsafeSlice::new(&mut parent);
    par_for(nb + nc, |x| {
        let p = if x >= nb {
            block_rank[r.labels[cuts[x - nb] as usize] as usize]
        } else {
            let h = r.head[blocks[x] as usize];
            if h != NONE && cut_id[h as usize] != NONE {
                nb as u32 + cut_id[h as usize]
            } else {
                NONE
            }
        };
        // SAFETY: node x written exactly once.
        unsafe { view.write(x, p) };
    });

    BlockCutTree {
        blocks,
        cuts,
        block_rank,
        cut_id,
        parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{fast_bcc, BccOpts};
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::Graph;

    /// The tree of `g`, after checking its rank tables and that every
    /// parent-pointer climb alternates kinds and ends within `node_count`.
    fn tree_of(g: &Graph) -> BlockCutTree {
        let t = block_cut_tree(&fast_bcc(g, BccOpts::default()));
        let (nb, nodes) = (t.blocks.len(), t.node_count());
        for (ids, rank) in [(&t.blocks, &t.block_rank), (&t.cuts, &t.cut_id)] {
            for (i, &v) in ids.iter().enumerate() {
                assert_eq!(rank[v as usize], i as u32);
            }
        }
        for x in 0..nodes {
            let (mut y, mut steps) = (x, 0);
            while t.parent[y] != NONE {
                let p = t.parent[y] as usize;
                assert_ne!(y < nb, p < nb, "node {y} hangs under its own kind");
                y = p;
                steps += 1;
                assert!(steps < nodes, "parent pointers from node {x} cycle");
            }
        }
        t
    }

    /// Forest edges (non-root nodes) and tree count (roots).
    fn edges_and_trees(t: &BlockCutTree) -> (usize, usize) {
        let roots = t.parent.iter().filter(|&&p| p == NONE).count();
        (t.node_count() - roots, roots)
    }

    /// Forest degree of the cut node of `v`: its children plus its parent.
    fn cut_degree(t: &BlockCutTree, v: V) -> usize {
        let x = t.blocks.len() as u32 + t.cut_id[v as usize];
        t.parent.iter().filter(|&&p| p == x).count() + (t.parent[x as usize] != NONE) as usize
    }

    #[test]
    fn windmill_is_a_star() {
        let t = tree_of(&windmill(5));
        assert_eq!(t.blocks.len(), 5);
        assert_eq!(t.cuts, vec![0]);
        assert_eq!(edges_and_trees(&t), (5, 1));
        assert_eq!(cut_degree(&t, 0), 5);
    }

    #[test]
    fn path_alternates_blocks_and_cuts() {
        let n = 8;
        let t = tree_of(&path(n));
        assert_eq!(t.blocks.len(), n - 1); // each edge a block
        assert_eq!(t.cuts.len(), n - 2); // internal vertices
        assert_eq!(edges_and_trees(&t), (2 * (n - 2), 1)); // each cut joins 2 blocks
    }

    #[test]
    fn biconnected_graph_single_block() {
        for g in [cycle(9), complete(7), petersen()] {
            let t = tree_of(&g);
            assert_eq!(t.blocks.len(), 1);
            assert_eq!(t.parent, vec![NONE]); // one node: no cuts
        }
    }

    #[test]
    fn barbell_shape() {
        // clique - cut - bridge-block - cut - clique
        let t = tree_of(&barbell(4, 1));
        assert_eq!(t.blocks.len(), 3);
        assert_eq!(t.cuts.len(), 2);
        assert_eq!(edges_and_trees(&t), (4, 1));
    }

    #[test]
    fn forest_property_on_disconnected() {
        let g = disjoint_union(&[&windmill(3), &path(5), &cycle(4), &Graph::empty(3)]);
        let t = tree_of(&g);
        // Components: windmill tree (3 blocks + 1 cut), path tree
        // (4 blocks + 3 cuts), cycle (1 block), isolated vertices (none).
        assert_eq!(t.blocks.len(), 3 + 4 + 1);
        assert_eq!(t.cuts.len(), 1 + 3);
        assert_eq!(edges_and_trees(&t).1, 3);
    }

    #[test]
    fn cut_degrees_are_membership_counts() {
        for g in [
            windmill(5),
            barbell(4, 2),
            clique_chain(5, 4),
            disjoint_union(&[&windmill(3), &path(6), &cycle(4)]),
        ] {
            let r = fast_bcc(&g, BccOpts::default());
            let (t, count) = (tree_of(&g), bcc_membership_counts(&r));
            for &c in &t.cuts {
                assert_eq!(cut_degree(&t, c), count[c as usize] as usize, "cut {c}");
            }
        }
    }

    #[test]
    fn node_and_edge_counts_satisfy_forest_equation() {
        // One tree per component with an edge: edges = nodes - trees.
        let t = tree_of(&disjoint_union(&[&clique_chain(4, 3), &star(6)]));
        assert_eq!(edges_and_trees(&t), (t.node_count() - 2, 2));
    }
}
