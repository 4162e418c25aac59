//! Reference answers from the sequential Hopcroft–Tarjan oracle.
//!
//! Everything here is computed from `hopcroft_tarjan`'s explicit BCC
//! vertex sets and articulation points alone — its own block-cut tree,
//! walked naively — so the checks share no code with `BccIndex`.

use fastbcc_baselines::hopcroft_tarjan;
use fastbcc_core::{Query, QueryAnswer};
use fastbcc_graph::{Graph, NONE, V};
use std::collections::VecDeque;

/// What a run keeps of the oracle: counts, a fingerprint of the canonical
/// BCC sets, and the answers to a fixed probe batch.
pub struct Expected {
    pub n: usize,
    pub m: usize,
    pub num_bcc: usize,
    pub bcc_fingerprint: u64,
    pub probe_answers: Vec<QueryAnswer>,
}

/// Order-sensitive FNV-1a fingerprint of canonical BCC sets (each sorted,
/// the list sorted), the form both `hopcroft_tarjan` and
/// `fastbcc_core::canonical_bccs` produce.
pub fn fingerprint(bccs: &[Vec<V>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for b in bccs {
        mix(b.len() as u64 | 1 << 63);
        for &v in b {
            mix(v as u64);
        }
    }
    h
}

/// Solve `g` with Hopcroft–Tarjan and answer `probe` from its result.
pub fn expected(g: &Graph, probe: &[Query]) -> Expected {
    let ht = hopcroft_tarjan(g, true);
    let bccs = ht.bccs.expect("collect = true materializes the BCC sets");
    let tree = CutTree::new(g.n(), &bccs, &ht.articulation_points);
    Expected {
        n: g.n(),
        m: g.m_undirected(),
        num_bcc: ht.num_bcc,
        bcc_fingerprint: fingerprint(&bccs),
        probe_answers: probe.iter().map(|&q| tree.answer(q)).collect(),
    }
}

/// Block-cut tree over explicit BCC sets: nodes `0..B` are blocks, `B..`
/// are articulation points.
struct CutTree {
    blocks: usize,
    block_size: Vec<u32>,
    /// Blocks containing each vertex, ascending (CSR).
    member_off: Vec<usize>,
    member: Vec<u32>,
    /// Tree node standing for each vertex: its cut node, else its block.
    node_of: Vec<u32>,
    parent: Vec<u32>,
    depth: Vec<u32>,
    comp: Vec<u32>,
}

impl CutTree {
    fn new(n: usize, bccs: &[Vec<V>], cuts: &[V]) -> Self {
        let blocks = bccs.len();
        let mut cut_node = vec![NONE; n];
        for (i, &c) in cuts.iter().enumerate() {
            cut_node[c as usize] = (blocks + i) as u32;
        }
        let mut member_off = vec![0usize; n + 1];
        for b in bccs {
            for &v in b {
                member_off[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            member_off[v + 1] += member_off[v];
        }
        let mut fill = member_off.clone();
        let mut member = vec![0u32; member_off[n]];
        let mut node_of = cut_node.clone();
        let nodes = blocks + cuts.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        for (b, set) in bccs.iter().enumerate() {
            for &v in set {
                member[fill[v as usize]] = b as u32;
                fill[v as usize] += 1;
                let c = cut_node[v as usize];
                if c == NONE {
                    node_of[v as usize] = b as u32;
                } else {
                    adj[b].push(c);
                    adj[c as usize].push(b as u32);
                }
            }
        }
        let (mut parent, mut depth, mut comp) =
            (vec![NONE; nodes], vec![0u32; nodes], vec![NONE; nodes]);
        let mut queue = VecDeque::new();
        for root in 0..nodes {
            if comp[root] != NONE {
                continue;
            }
            comp[root] = root as u32;
            queue.push_back(root as u32);
            while let Some(x) = queue.pop_front() {
                for &y in &adj[x as usize] {
                    if comp[y as usize] == NONE {
                        comp[y as usize] = root as u32;
                        parent[y as usize] = x;
                        depth[y as usize] = depth[x as usize] + 1;
                        queue.push_back(y);
                    }
                }
            }
        }
        Self {
            blocks,
            block_size: bccs.iter().map(|b| b.len() as u32).collect(),
            member_off,
            member,
            node_of,
            parent,
            depth,
            comp,
        }
    }

    fn blocks_of(&self, v: V) -> &[u32] {
        &self.member[self.member_off[v as usize]..self.member_off[v as usize + 1]]
    }

    fn common_blocks(&self, u: V, v: V) -> impl Iterator<Item = u32> + '_ {
        let other = self.blocks_of(v);
        self.blocks_of(u)
            .iter()
            .copied()
            .filter(move |b| other.binary_search(b).is_ok())
    }

    fn is_cut(&self, node: u32) -> u32 {
        (node as usize >= self.blocks) as u32
    }

    fn answer(&self, q: Query) -> QueryAnswer {
        match q {
            Query::SameBcc(u, v) if u == v => QueryAnswer::Bool(!self.blocks_of(u).is_empty()),
            Query::SameBcc(u, v) => QueryAnswer::Bool(self.common_blocks(u, v).next().is_some()),
            Query::IsArticulation(v) => {
                let x = self.node_of[v as usize];
                QueryAnswer::Bool(x != NONE && self.is_cut(x) == 1)
            }
            Query::IsBridge(u, v) => QueryAnswer::Bool(
                u != v
                    && self
                        .common_blocks(u, v)
                        .any(|b| self.block_size[b as usize] == 2),
            ),
            Query::CutVerticesOnPath(u, v) => QueryAnswer::Count(self.cuts_between(u, v)),
        }
    }

    /// Articulation points other than `u` and `v` on the tree path between
    /// their nodes; `None` when no `u`–`v` path exists.
    fn cuts_between(&self, u: V, v: V) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let (a, b) = (self.node_of[u as usize], self.node_of[v as usize]);
        if a == NONE || b == NONE || self.comp[a as usize] != self.comp[b as usize] {
            return None;
        }
        if a == b {
            return Some(0);
        }
        let (mut x, mut y, mut cuts) = (a, b, 0);
        while x != y {
            if self.depth[x as usize] >= self.depth[y as usize] {
                cuts += self.is_cut(x);
                x = self.parent[x as usize];
            } else {
                cuts += self.is_cut(y);
                y = self.parent[y as usize];
            }
        }
        Some(cuts + self.is_cut(x) - self.is_cut(a) - self.is_cut(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_core::{block_cut_tree, fast_bcc, random_mixed_batch, BccIndex, BccOpts};
    use fastbcc_graph::generators::classic::{barbell, disjoint_union, path, windmill};
    use fastbcc_graph::generators::rmat;

    #[test]
    fn oracle_agrees_with_the_index_on_small_graphs() {
        let graphs = [
            path(9),
            windmill(5),
            barbell(4, 3),
            disjoint_union(&[&path(4), &windmill(3)]),
            rmat(9, 700, 5),
        ];
        for g in &graphs {
            let probe = random_mixed_batch(g.n(), 2000, 17);
            let want = expected(g, &probe);
            let r = fast_bcc(g, BccOpts::default());
            let index = BccIndex::build(&r, &block_cut_tree(&r));
            let got: Vec<QueryAnswer> = probe.iter().map(|&q| index.answer(q)).collect();
            assert_eq!(got, want.probe_answers);
            assert_eq!(r.num_bcc, want.num_bcc);
            assert_eq!(
                fingerprint(&fastbcc_core::canonical_bccs(&r)),
                want.bcc_fingerprint
            );
        }
    }
}
