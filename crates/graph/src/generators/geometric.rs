//! Random geometric graphs — the road-network stand-in (CA/USA/GE).
//!
//! Road networks are near-planar with average degree ≈ 2–3 and diameter
//! Θ(√n). A random geometric graph slightly above its connectivity
//! threshold (`radius ≈ c·√(ln n / n)`) has exactly these properties, which
//! are what make BFS-based BCC baselines slow on the paper's road inputs.

use super::points::PointGrid;
use crate::builder::build_symmetric;
use crate::csr::Graph;
use crate::types::{EdgeList, V};
use fastbcc_primitives::par::{block_bounds, num_blocks, par_blocks_collect, DEFAULT_GRAIN};

/// Random geometric graph: `n` uniform points, edge iff distance ≤ `radius`.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n >= 1 && radius > 0.0);
    // Cell width = radius: neighbors live in the 3×3 cell block.
    let dim = ((1.0 / radius).floor() as usize).clamp(1, 4096);
    let xs: Vec<f64> = (0..n)
        .map(|i| {
            fastbcc_primitives::rng::to_unit_f64(fastbcc_primitives::rng::hash64_pair(
                seed,
                2 * i as u64,
            ))
        })
        .collect();
    let ys: Vec<f64> = (0..n)
        .map(|i| {
            fastbcc_primitives::rng::to_unit_f64(fastbcc_primitives::rng::hash64_pair(
                seed,
                2 * i as u64 + 1,
            ))
        })
        .collect();
    let pg = PointGrid::from_points(xs, ys, dim);
    let r2 = radius * radius;

    // Per-block edge lists, concatenated in block order.
    let bounds = block_bounds(n, num_blocks(n, DEFAULT_GRAIN));
    let edges: Vec<(V, V)> = par_blocks_collect(&bounds, |_, block| {
        let mut acc = Vec::new();
        for i in block {
            let (cx, cy) = pg.cell_xy(i);
            for r in 0..=1usize {
                pg.for_ring(cx, cy, r, |j| {
                    // Each pair once: only emit toward larger ids.
                    if (j as usize) > i && pg.dist2(i, j as usize) <= r2 {
                        acc.push((i as V, j));
                    }
                });
            }
        }
        acc
    })
    .concat();
    build_symmetric(&EdgeList { n, edges })
}

/// Radius targeting average degree ≈ 3.5 — the road-network regime.
///
/// Road graphs are *not* at the RGG connectivity threshold: they have
/// average degree 2–3, a giant component plus many fragments, and a large
/// share of bridges/articulation points (the paper's CA input has 381 366
/// BCCs over 1.97 M vertices). A degree-targeted radius reproduces all
/// three properties; the threshold radius (`≈ √(ln n / πn)`) would instead
/// give a ln(n)-degree, almost fully biconnected graph.
pub fn road_like_radius(n: usize) -> f64 {
    let n = n.max(2) as f64;
    (3.5 / (std::f64::consts::PI * n)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force edge set for verification.
    fn naive_edges(pg: &PointGrid, r2: f64) -> Vec<(V, V)> {
        let n = pg.xs.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if pg.dist2(i, j) <= r2 {
                    out.push((i as V, j as V));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force() {
        let n = 400;
        let radius = 0.08;
        let g = random_geometric(n, radius, 17);
        // Recreate identical points for the naive computation.
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                fastbcc_primitives::rng::to_unit_f64(fastbcc_primitives::rng::hash64_pair(
                    17,
                    2 * i as u64,
                ))
            })
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| {
                fastbcc_primitives::rng::to_unit_f64(fastbcc_primitives::rng::hash64_pair(
                    17,
                    2 * i as u64 + 1,
                ))
            })
            .collect();
        let dim = ((1.0 / radius).floor() as usize).clamp(1, 4096);
        let pg = PointGrid::from_points(xs, ys, dim);
        let mut want = naive_edges(&pg, radius * radius);
        want.sort_unstable();
        let mut got: Vec<(V, V)> = g.iter_edges().collect();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn road_like_is_sparse_and_fragmented() {
        let n = 20_000;
        let g = random_geometric(n, road_like_radius(n), 23);
        let avg_deg = g.m() as f64 / n as f64;
        assert!((2.0..6.0).contains(&avg_deg), "avg degree {avg_deg}");
        assert!(g.is_symmetric());
        // Road regime: multiple components, not one biconnected blob.
        let cc = fastbcc_graph_cc_count(&g);
        assert!(cc > 10, "expected fragmented road-like graph, got {cc} CCs");
    }

    fn fastbcc_graph_cc_count(g: &Graph) -> usize {
        crate::stats::cc_count_seq(g)
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            random_geometric(500, 0.05, 3),
            random_geometric(500, 0.05, 3)
        );
    }

    #[test]
    fn single_point() {
        let g = random_geometric(1, 0.5, 0);
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }
}
