//! Churn-batch and perturbed-graph generation shared by the serving
//! benchmarks (`serve` and `batch_dynamic` bins).
//!
//! A *churn batch* swaps a fraction of a graph's edges: it deletes
//! `frac · m` edges sampled uniformly from the live edge set and inserts
//! the same number of uniformly random absent pairs. Chaining batches
//! yields a perturbed-graph sequence — the rebuild schedule the `serve`
//! bench drives the service through, and the per-round update stream the
//! `batch_dynamic` bench feeds `BccEngine::apply_batch`. Both bins draw
//! from this module so their update streams are generated identically
//! (same sampler, same normalization, same seeds ⇒ same batches).

use fastbcc_graph::{apply_delta, DeltaScratch, Graph, GraphDelta, V};
use std::collections::HashSet;

/// Deterministic xorshift64* stream, the workspace's bench-side RNG.
pub struct ChurnRng {
    state: u64,
}

impl ChurnRng {
    /// Seeded stream; `seed` is perturbed so 0 is a valid input.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..n` (0 when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// The live undirected edge set of `g` (normalized `u < v`) — the mutable
/// ground truth a churn stream evolves between batches.
pub fn live_edges(g: &Graph) -> Vec<(V, V)> {
    g.iter_edges().collect()
}

/// Generate one churn batch against the current graph `g`: about
/// `frac · m` (at least one of each, when possible) deletions sampled
/// from `live` plus the same number of insertions of absent non-loop
/// pairs. `live` is updated to the post-batch edge set, so chained calls
/// evolve a consistent stream.
///
/// Insertions never collide with present edges (including ones deleted in
/// this same batch — they are still present in `g`), so the returned
/// `(adds, dels)` lists are disjoint and unambiguous under simultaneous
/// batch semantics.
pub fn churn_batch(g: &Graph, live: &mut Vec<(V, V)>, frac: f64, rng: &mut ChurnRng) -> GraphDelta {
    let n = g.n() as u64;
    let m = live.len();
    let k = ((m as f64 * frac).round() as usize).clamp(1, m);
    let mut delta = GraphDelta::new();
    if n < 2 || m == 0 {
        return delta;
    }
    for _ in 0..k {
        let i = rng.below(live.len() as u64) as usize;
        delta.dels.push(live.swap_remove(i));
    }
    let mut fresh: HashSet<(V, V)> = HashSet::with_capacity(k);
    let mut attempts = 0usize;
    while fresh.len() < k && attempts < 32 * k {
        attempts += 1;
        let (a, b) = (rng.below(n) as V, rng.below(n) as V);
        let (u, v) = (a.min(b), a.max(b));
        if u != v && !g.has_edge(u, v) && fresh.insert((u, v)) {
            delta.adds.push((u, v));
            live.push((u, v));
        }
    }
    delta
}

/// A perturbed-graph schedule: `steps` graphs, each one churn batch
/// (`frac` of the edges swapped) away from the previous, paired with the
/// batch that produced it. The `serve` bench rebuilds through the graphs;
/// `batch_dynamic` feeds the deltas to both of its sides and checks the
/// full side's evolved graph against these.
pub fn perturbed_sequence(
    g0: &Graph,
    steps: usize,
    frac: f64,
    seed: u64,
) -> Vec<(GraphDelta, Graph)> {
    let mut rng = ChurnRng::new(seed);
    let mut live = live_edges(g0);
    let mut scratch = DeltaScratch::new();
    let mut cur = g0.clone();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let delta = churn_batch(&cur, &mut live, frac, &mut rng);
        let next = apply_delta(&cur, &delta, &mut scratch);
        scratch.recycle(std::mem::replace(&mut cur, next.clone()));
        out.push((delta, next));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_graph::builder::from_edges;
    use fastbcc_graph::generators::rmat;

    #[test]
    fn batches_evolve_a_consistent_live_set() {
        let g0 = rmat(8, 500, 11);
        let mut live = live_edges(&g0);
        let mut rng = ChurnRng::new(42);
        let mut scratch = DeltaScratch::new();
        let mut cur = g0;
        for _ in 0..5 {
            let m_before = live.len();
            let d = churn_batch(&cur, &mut live, 0.02, &mut rng);
            assert!(!d.dels.is_empty());
            // Adds and dels are disjoint, and adds were absent.
            for &(u, v) in &d.adds {
                assert!(u < v && !cur.has_edge(u, v));
                assert!(!d.dels.contains(&(u, v)));
            }
            let next = apply_delta(&cur, &d, &mut scratch);
            let want = from_edges(cur.n(), &live);
            assert_eq!(next, want, "live set tracks the evolved graph");
            assert!(live.len() <= m_before + d.adds.len());
            scratch.recycle(std::mem::replace(&mut cur, next));
        }
    }

    #[test]
    fn perturbed_sequence_is_deterministic_and_chained() {
        let g0 = rmat(7, 300, 3);
        let a = perturbed_sequence(&g0, 4, 0.05, 9);
        let b = perturbed_sequence(&g0, 4, 0.05, 9);
        assert_eq!(a.len(), 4);
        for ((da, ga), (db, gb)) in a.iter().zip(&b) {
            assert_eq!(da.adds, db.adds);
            assert_eq!(da.dels, db.dels);
            assert_eq!(ga, gb);
        }
        // Each graph is its predecessor plus its own delta.
        let mut scratch = DeltaScratch::new();
        let mut prev = g0;
        for (d, g) in a {
            assert_eq!(apply_delta(&prev, &d, &mut scratch), g);
            prev = g;
        }
    }
}
