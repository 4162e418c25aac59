//! Graph statistics for the benchmark tables: approximate diameter (the
//! `D` column of Tab. 2), degree distribution summaries, and a simple
//! sequential connectivity count used as test oracle.
//!
//! These run once per graph when printing tables — they are deliberately
//! simple sequential code, not part of any timed region.

use crate::csr::Graph;
use crate::types::{NONE, V};
use std::collections::VecDeque;

/// BFS distances from `src` (u32::MAX = unreachable).
pub fn bfs_distances(g: &Graph, src: V) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// The farthest reachable vertex from `src` and its distance.
fn eccentricity_sweep(g: &Graph, src: V) -> (V, u32) {
    let dist = bfs_distances(g, src);
    let mut far = src;
    let mut best = 0;
    for (v, &d) in dist.iter().enumerate() {
        if d != u32::MAX && d > best {
            best = d;
            far = v as V;
        }
    }
    (far, best)
}

/// Approximate diameter by iterated double-sweep BFS (exact on trees, a
/// lower bound in general — the same technique behind the paper's
/// "approximate diameter" column).
pub fn approx_diameter(g: &Graph, sweeps: usize) -> u32 {
    if g.n() == 0 {
        return 0;
    }
    let mut best = 0;
    let mut src = 0 as V;
    // Restart from the max-degree vertex too: helps on disconnected inputs.
    let starts = [src, g.max_degree_vertex()];
    for &s in &starts {
        if s == NONE {
            continue;
        }
        src = s;
        for _ in 0..sweeps.max(1) {
            let (far, d) = eccentricity_sweep(g, src);
            if d <= best && far == src {
                break;
            }
            best = best.max(d);
            src = far;
        }
    }
    best
}

/// Number of connected components (sequential BFS oracle).
pub fn cc_count_seq(g: &Graph) -> usize {
    let mut seen = vec![false; g.n()];
    let mut count = 0;
    let mut q = VecDeque::new();
    for s in 0..g.n() {
        if seen[s] {
            continue;
        }
        count += 1;
        seen[s] = true;
        q.push_back(s as V);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    q.push_back(v);
                }
            }
        }
    }
    count
}

/// Sequential connected-component labels (test oracle; label = min id
/// reached first by BFS order, but callers should only compare partitions).
pub fn cc_labels_seq(g: &Graph) -> Vec<u32> {
    let mut label = vec![NONE; g.n()];
    let mut q = VecDeque::new();
    for s in 0..g.n() {
        if label[s] != NONE {
            continue;
        }
        label[s] = s as u32;
        q.push_back(s as V);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if label[v as usize] == NONE {
                    label[v as usize] = s as u32;
                    q.push_back(v);
                }
            }
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::*;

    #[test]
    fn bfs_on_path() {
        let g = path(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn diameter_exact_on_simple_shapes() {
        assert_eq!(approx_diameter(&path(100), 3), 99);
        assert_eq!(approx_diameter(&cycle(10), 3), 5);
        assert_eq!(approx_diameter(&complete(8), 3), 1);
        assert_eq!(approx_diameter(&star(50), 3), 2);
    }

    #[test]
    fn diameter_on_disconnected() {
        let g = disjoint_union(&[&path(10), &path(30)]);
        // Double sweep finds at least the larger component's diameter if a
        // start lands there; we accept a lower bound ≥ the first component.
        let d = approx_diameter(&g, 3);
        assert!(d >= 9, "diameter estimate {d}");
    }

    #[test]
    fn cc_counts() {
        assert_eq!(cc_count_seq(&path(10)), 1);
        let g = disjoint_union(&[&cycle(3), &cycle(4), &path(2)]);
        assert_eq!(cc_count_seq(&g), 3);
        assert_eq!(cc_count_seq(&crate::csr::Graph::empty(5)), 5);
    }

    #[test]
    fn cc_labels_partition_correctly() {
        let g = disjoint_union(&[&cycle(3), &path(4)]);
        let l = cc_labels_seq(&g);
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[3], l[4]);
        assert_ne!(l[0], l[3]);
    }
}
