//! The FAST-BCC algorithm (paper Alg. 1).
//!
//! ```text
//! 1 Compute the spanning forest F of G                      ⊳ First-CC
//! 2 Root all trees in F using the Euler tour technique      ⊳ Rooting
//! 3 Compute tags (low, high, …) of each vertex              ⊳ Tagging
//! 4 Compute the vertex label l[·] using connectivity on G
//!   with edges satisfying InSkeleton(u,v) = true            ⊳ Last-CC
//! 5 ParallelForEach u ∈ V with l[u] ≠ l[p(u)]
//! 6     Set the component head of l[u] as p(u)
//! ```
//!
//! Cost (Thm. 4.13): `O(n + m)` expected work, `O(log³ n)` span w.h.p.,
//! `O(n)` auxiliary space. Every phase is timed individually — the Fig. 5
//! breakdown experiment reads the [`Breakdown`] directly.

use crate::tags::Tags;
use fastbcc_graph::{Graph, NONE, V};
use fastbcc_primitives::par::par_for;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Which connectivity algorithm powers First-CC and Last-CC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CcScheme {
    /// LDD-UF-JTB — the paper's theoretically efficient choice (Thm. 5.1).
    #[default]
    LddUfJtb,
    /// Plain concurrent union–find over all edges (ablation; the scheme
    /// used by recent GBBS for its connectivity phase).
    UfAsync,
}

/// Options for [`fast_bcc`]. They steer only the FAST-BCC pipeline:
/// [`fast_bcc`], [`BccEngine::solve_fast_bcc`](crate::BccEngine::solve_fast_bcc),
/// and the engine's solves at budgets where it runs the pipeline; the
/// DFS solve ([`crate::dfs`]) takes none of them.
#[derive(Clone, Copy, Debug)]
pub struct BccOpts {
    /// Connectivity scheme for both CC phases.
    pub scheme: CcScheme,
    /// Hash-bag + local-search granularity control inside the LDD (the
    /// Fig. 6 "Opt."/"Orig." toggle). Ignored by [`CcScheme::UfAsync`].
    pub local_search: bool,
    /// Seed for all randomized substeps (LDD shifts, list-ranking samples).
    pub seed: u64,
}

impl Default for BccOpts {
    fn default() -> Self {
        Self {
            scheme: CcScheme::LddUfJtb,
            local_search: true,
            seed: 0xFA57_BCC,
        }
    }
}

/// Wall-clock time per phase (the Fig. 5 series).
///
/// A [`crate::engine::BccEngine`] solve at a budget of at most
/// [`crate::engine::DFS_MAX_BUDGET`] takes the DFS path ([`crate::dfs`])
/// instead of the four phases: its traversal is reported
/// under `rooting`, its labelling sweep under `last_cc`, and `first_cc`
/// and `tagging` are zero, so [`total`](Self::total) still covers the
/// solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    pub first_cc: Duration,
    pub rooting: Duration,
    pub tagging: Duration,
    pub last_cc: Duration,
}

impl Breakdown {
    /// End-to-end time.
    pub fn total(&self) -> Duration {
        self.first_cc + self.rooting + self.tagging + self.last_cc
    }
}

/// FAST-BCC output: the paper's `O(n)` BCC representation plus metadata.
pub struct BccResult {
    /// Skeleton-connectivity label per vertex. Vertices sharing a label are
    /// biconnected (Thm. 4.11).
    pub labels: Vec<u32>,
    /// Component head per label (indexed by label value, which is a vertex
    /// id); `NONE` when the label has no head (the root's own component).
    pub head: Vec<V>,
    /// Number of members per label (histogram over `labels`).
    pub label_count: Vec<u32>,
    /// Number of biconnected components.
    pub num_bcc: usize,
    /// Number of connected components.
    pub num_cc: usize,
    /// Per-phase wall-clock times.
    pub breakdown: Breakdown,
    /// Peak auxiliary memory (analytic accounting of the major arrays).
    pub aux_peak_bytes: usize,
    /// Buffer capacity newly allocated during this solve. A one-shot
    /// [`fast_bcc`] pays for every array; a repeated
    /// [`crate::engine::BccEngine::solve`] on a same-shaped input reports 0
    /// here (all major arrays served from the pooled [`crate::engine::Workspace`]).
    pub fresh_alloc_bytes: usize,
    /// Bytes held by the per-worker scratch arenas
    /// (`fastbcc_primitives::WorkerLocal`: LDD frontier buffers,
    /// local-search stacks, union-edge staging). Grows with the worker
    /// ceiling, not the schedule — `O(n)` per possible worker — and is
    /// included in [`aux_peak_bytes`](Self::aux_peak_bytes).
    pub arena_bytes: usize,
}

impl BccResult {
    /// The BCC id of an edge: the label of the endpoint farther from the
    /// root (for a tree edge this is the child; for a non-tree edge the
    /// descendant-most endpoint, which Thm. 4.2 places in the right BCC).
    ///
    /// Decided from `labels`/`head` alone (no tags, so it stays valid
    /// after [`crate::engine::BccEngine::apply_batch`]): co-labeled
    /// endpoints share the edge's BCC outright; otherwise exactly one
    /// endpoint is the head of the other's label class — a tree edge's
    /// child and a back edge's descendant both carry the block's label
    /// while the far endpoint heads it.
    #[inline]
    pub fn bcc_of_edge(&self, u: V, v: V) -> u32 {
        let lu = self.labels[u as usize];
        let lv = self.labels[v as usize];
        if lu == lv || self.head[lu as usize] == v {
            lu
        } else {
            debug_assert_eq!(self.head[lv as usize], u);
            lv
        }
    }

    /// Check the representation against `g`, the graph it describes, and
    /// name the first violation (test helper). It reads only what
    /// [`crate::engine::BccEngine::apply_batch`] maintains:
    /// - `label_count` is the label histogram, every label is a member of
    ///   its own class, and a head sits only on a class id;
    /// - every class plus its head induces a connected subgraph of `g`;
    /// - the head forest, in which a class points to the class of its
    ///   head, is acyclic, and every headless class is a singleton, the
    ///   root of its component;
    /// - `num_bcc` and `num_cc` equal a recount.
    pub fn verify_representation(&self, g: &Graph) -> Result<(), String> {
        macro_rules! ensure {
            ($ok:expr, $($msg:tt)+) => {
                if !$ok {
                    return Err(format!($($msg)+));
                }
            };
        }
        let n = g.n();
        let (labels, head) = (&self.labels, &self.head);
        let mut hist = vec![0u32; n];
        for (v, &l) in labels.iter().enumerate() {
            ensure!((l as usize) < n, "label {l} of {v} out of range");
            ensure!(
                labels[l as usize] == l,
                "label {l} of {v} is not a member of {l}"
            );
            hist[l as usize] += 1;
        }
        ensure!(hist == self.label_count, "label_count is not the histogram");
        for (l, &h) in head.iter().enumerate() {
            ensure!(
                h == NONE || labels[l] == l as u32,
                "head on {l}, not a class id"
            );
        }
        // One union–find over the edges inside a class and the edges from a
        // class to its head. Node `n + l` stands for class `l`'s head, so a
        // vertex heading several classes joins none of them to another.
        let mut uf: Vec<usize> = (0..2 * n).collect();
        let find = |uf: &mut Vec<usize>, mut x: usize| {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        };
        for (a, b) in g.iter_edges() {
            let (a, b) = (a as usize, b as usize);
            let (la, lb) = (labels[a] as usize, labels[b] as usize);
            for (joined, x, y) in [
                (la == lb, a, b),
                (head[la] == b as V, a, n + la),
                (head[lb] == a as V, b, n + lb),
            ] {
                if joined {
                    let (rx, ry) = (find(&mut uf, x), find(&mut uf, y));
                    uf[rx] = ry;
                }
            }
        }
        for v in 0..n {
            let l = labels[v] as usize;
            ensure!(
                find(&mut uf, v) == find(&mut uf, l),
                "{v} is not connected to the rest of class {l}"
            );
            ensure!(
                head[l] == NONE || find(&mut uf, n + l) == find(&mut uf, l),
                "class {l} does not reach its head {}",
                head[l]
            );
        }
        // Climb the head forest from every class to a headless one or to a
        // class already known to reach one; meeting the current climb again
        // is a cycle.
        let (mut state, mut climb) = (vec![0u8; n], Vec::new());
        let mut roots = 0;
        for l in (0..n).filter(|&l| labels[l] == l as u32) {
            if head[l] == NONE {
                ensure!(hist[l] == 1, "headless class {l} is not a singleton root");
                roots += 1;
            }
            let mut x = l;
            while state[x] != 2 {
                ensure!(state[x] == 0, "head cycle through class {x}");
                state[x] = 1;
                climb.push(x);
                if head[x] == NONE {
                    break;
                }
                x = labels[head[x] as usize] as usize;
            }
            for y in climb.drain(..) {
                state[y] = 2;
            }
        }
        let blocks = (0..n as u32).filter(|&l| self.is_bcc_label(l)).count();
        ensure!(
            (self.num_bcc, self.num_cc) == (blocks, roots),
            "census (num_bcc, num_cc) = {:?}, recount {:?}",
            (self.num_bcc, self.num_cc),
            (blocks, roots)
        );
        Ok(())
    }

    /// True iff label `l` denotes a real BCC (≥ 1 edge).
    #[inline]
    pub fn is_bcc_label(&self, l: u32) -> bool {
        self.label_count[l as usize] >= 2 || self.head[l as usize] != NONE
    }

    /// `O(1)` biconnectivity query: do distinct vertices `u` and `v` share
    /// a BCC?
    ///
    /// The BCCs containing a vertex `x` are exactly its own label class
    /// (when that class is a real BCC) plus every label it heads. A label
    /// has exactly one head, so for any two co-members at least one carries
    /// the label itself — three comparisons decide the query.
    ///
    /// Requires `u != v`. A vertex belongs to some BCC iff
    /// [`BccIndex::same_bcc`](crate::query::BccIndex::same_bcc)`(u, u)`
    /// holds on the result's index, or iff its entry in the per-vertex
    /// tally [`crate::postprocess::bcc_membership_counts`] is nonzero.
    #[inline]
    pub fn same_bcc(&self, u: V, v: V) -> bool {
        debug_assert_ne!(u, v, "same_bcc is defined for distinct vertices");
        let lu = self.labels[u as usize];
        let lv = self.labels[v as usize];
        (lu == lv && self.is_bcc_label(lu))
            || self.head[lu as usize] == v
            || self.head[lv as usize] == u
    }
}

/// Alg. 1 lines 5–6 plus the BCC census: assign the component head of each
/// label (the parent across the label's fence edges) and count BCCs.
///
/// Shared by FAST-BCC and the BFS-skeleton baselines, which produce labels
/// by a different connectivity scheme but use the same representation.
/// Writers racing on one label all store the same head (Lemma 4.9: the BCC
/// head is unique per label), but atomics keep the race well-defined.
///
/// Returns `(head, label_count, num_bcc)`.
pub fn assign_heads(labels: &[u32], tags: &Tags) -> (Vec<V>, Vec<u32>, usize) {
    let mut head = Vec::new();
    let mut label_count = Vec::new();
    let num_bcc = assign_heads_in(labels, tags, &mut head, &mut label_count);
    (head, label_count, num_bcc)
}

/// [`assign_heads`] writing into caller-owned buffers (the engine's result
/// slot). Returns the BCC count.
pub fn assign_heads_in(
    labels: &[u32],
    tags: &Tags,
    head_out: &mut Vec<V>,
    count_out: &mut Vec<u32>,
) -> usize {
    let n = labels.len();
    head_out.clear();
    head_out.resize(n, NONE);
    {
        let head_atomic = fastbcc_primitives::atomics::as_atomic_u32(head_out);
        let parent_ref = &tags.parent;
        par_for(n, |u| {
            let p = parent_ref[u];
            if p != NONE && labels[u] != labels[p as usize] {
                head_atomic[labels[u] as usize].store(p, Ordering::Relaxed);
            }
        });
    }

    // Label histogram → BCC count: a label is a BCC iff it has ≥ 2 members
    // or a head (i.e. it contains at least one edge).
    count_out.clear();
    count_out.resize(n, 0);
    {
        let counts = fastbcc_primitives::atomics::as_atomic_u32(count_out);
        par_for(n, |v| {
            counts[labels[v] as usize].fetch_add(1, Ordering::Relaxed);
        });
    }
    let head_ref = &*head_out;
    let count_ref = &*count_out;
    fastbcc_primitives::reduce::count(n, |l| count_ref[l] >= 2 || head_ref[l] != NONE)
}

/// Run FAST-BCC on `g`.
///
/// One-shot wrapper over [`crate::engine::BccEngine`]: builds a throwaway
/// scratch [`crate::engine::Workspace`], solves once, and moves the result
/// out. Callers answering repeated queries should hold a `BccEngine`
/// instead, which amortizes every major-array allocation across solves.
pub fn fast_bcc(g: &Graph, opts: BccOpts) -> BccResult {
    crate::engine::BccEngine::new(opts).solve_into(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_graph::generators::classic::*;

    fn nbcc(g: &Graph) -> usize {
        fast_bcc(g, BccOpts::default()).num_bcc
    }

    #[test]
    fn known_bcc_counts() {
        assert_eq!(nbcc(&path(10)), 9);
        assert_eq!(nbcc(&cycle(10)), 1);
        assert_eq!(nbcc(&star(8)), 7);
        assert_eq!(nbcc(&complete(8)), 1);
        assert_eq!(nbcc(&windmill(6)), 6);
        assert_eq!(nbcc(&theta(2, 3, 4)), 1);
        assert_eq!(nbcc(&petersen()), 1);
        assert_eq!(nbcc(&binary_tree(31)), 30);
        assert_eq!(nbcc(&clique_chain(5, 4)), 5);
        assert_eq!(nbcc(&ladder(6)), 1);
        assert_eq!(nbcc(&wheel(9)), 1);
        assert_eq!(nbcc(&complete_bipartite(3, 4)), 1);
    }

    #[test]
    fn barbell_counts() {
        // Two cliques + a bridge path of length L: 2 + L BCCs.
        assert_eq!(nbcc(&barbell(5, 1)), 3);
        assert_eq!(nbcc(&barbell(5, 4)), 6);
    }

    #[test]
    fn disconnected_and_degenerate() {
        assert_eq!(nbcc(&Graph::empty(0)), 0);
        assert_eq!(nbcc(&Graph::empty(7)), 0);
        assert_eq!(
            nbcc(&disjoint_union(&[&cycle(4), &path(3), &complete(5)])),
            1 + 2 + 1
        );
        // Single edge.
        let g = path(2);
        assert_eq!(nbcc(&g), 1);
    }

    #[test]
    fn num_cc_reported() {
        let g = disjoint_union(&[&cycle(3), &cycle(3), &Graph::empty(2)]);
        let r = fast_bcc(&g, BccOpts::default());
        assert_eq!(r.num_cc, 4);
        assert_eq!(r.num_bcc, 2);
    }

    #[test]
    fn heads_are_articulation_or_root() {
        // Windmill: every component head is either the center (the unique
        // articulation point) or the spanning-tree root — the root is the
        // BCC head of whichever BCC contains it (its tree edges are always
        // fences).
        let g = windmill(4);
        let r = fast_bcc(&g, BccOpts::default());
        let root = (0..g.n() as V)
            .find(|&v| r.labels[v as usize] == v && r.head[v as usize] == NONE)
            .unwrap();
        let mut heads: Vec<V> = (0..g.n())
            .filter_map(|l| (r.head[l] != NONE).then_some(r.head[l]))
            .collect();
        heads.sort_unstable();
        heads.dedup();
        assert!(
            heads.iter().all(|&h| h == 0 || h == root),
            "heads = {heads:?}, root = {root}"
        );
        assert!(
            heads.contains(&0),
            "center must head the non-root triangles"
        );
    }

    #[test]
    fn both_schemes_agree() {
        for g in [windmill(5), barbell(4, 2), cycle(30), clique_chain(4, 5)] {
            let a = fast_bcc(
                &g,
                BccOpts {
                    scheme: CcScheme::LddUfJtb,
                    ..Default::default()
                },
            );
            let b = fast_bcc(
                &g,
                BccOpts {
                    scheme: CcScheme::UfAsync,
                    ..Default::default()
                },
            );
            assert_eq!(a.num_bcc, b.num_bcc);
            assert_eq!(a.num_cc, b.num_cc);
        }
    }

    #[test]
    fn local_search_toggle_agrees() {
        let g = clique_chain(10, 5);
        let a = fast_bcc(
            &g,
            BccOpts {
                local_search: true,
                ..Default::default()
            },
        );
        let b = fast_bcc(
            &g,
            BccOpts {
                local_search: false,
                ..Default::default()
            },
        );
        assert_eq!(a.num_bcc, b.num_bcc);
    }

    #[test]
    fn breakdown_sums_to_total_and_space_positive() {
        let g = cycle(1000);
        let r = fast_bcc(&g, BccOpts::default());
        assert!(r.breakdown.total() > Duration::ZERO);
        assert!(r.aux_peak_bytes >= 4 * 1000);
    }

    #[test]
    fn edge_bcc_mapping_consistent() {
        let g = windmill(3);
        let r = fast_bcc(&g, BccOpts::default());
        // Edges of one triangle map to one BCC id; different triangles to
        // different ids.
        let mut ids = std::collections::HashSet::new();
        for t in 0..3u32 {
            let (a, b) = (1 + 2 * t, 2 + 2 * t);
            let id1 = r.bcc_of_edge(0, a);
            let id2 = r.bcc_of_edge(0, b);
            let id3 = r.bcc_of_edge(a, b);
            assert_eq!(id1, id2);
            assert_eq!(id2, id3);
            assert!(r.is_bcc_label(id1));
            ids.insert(id1);
        }
        assert_eq!(ids.len(), 3);
    }
}
