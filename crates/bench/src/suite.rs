//! The benchmark graph suite — a laptop-scale mirror of Tab. 2.
//!
//! Names ending in `*` are category-equivalent substitutes for the paper's
//! real-world datasets (paper §6, Tab. 2); the synthetic family (SQR, REC,
//! SQR', REC', Chn) reproduces the paper's construction exactly, scaled
//! down. `--scale s` multiplies vertex counts by `s` (the paper's sizes
//! correspond to roughly `scale = 100`… on a 96-core/1.5TB machine).

use fastbcc_graph::generators::*;
use fastbcc_graph::Graph;

/// Graph category (the row groups of Tab. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    Social,
    Web,
    Road,
    Knn,
    Synthetic,
}

impl Category {
    pub fn label(self) -> &'static str {
        match self {
            Category::Social => "Social",
            Category::Web => "Web",
            Category::Road => "Road",
            Category::Knn => "k-NN",
            Category::Synthetic => "Synthetic",
        }
    }
}

/// One benchmark input.
pub struct GraphSpec {
    /// Tab. 2 name (with `*` marking substitutes).
    pub name: &'static str,
    pub category: Category,
    build: fn(f64) -> Graph,
}

impl GraphSpec {
    /// Materialize the graph at the given scale factor.
    pub fn build(&self, scale: f64) -> Graph {
        (self.build)(scale)
    }
}

fn sc(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(16)
}

/// The full suite, in Tab. 2 order.
pub fn suite() -> Vec<GraphSpec> {
    vec![
        // --- Social (power-law, low diameter) ---------------------------
        GraphSpec {
            name: "YT*",
            category: Category::Social,
            build: |s| rmat(scale_pow2(65_536, s), sc(400_000, s), 101),
        },
        GraphSpec {
            name: "OK*",
            category: Category::Social,
            build: |s| rmat(scale_pow2(32_768, s), sc(900_000, s), 102),
        },
        GraphSpec {
            name: "LJ*",
            category: Category::Social,
            build: |s| rmat(scale_pow2(131_072, s), sc(1_200_000, s), 103),
        },
        // --- Web (denser power-law + cliques) ---------------------------
        GraphSpec {
            name: "GG*",
            category: Category::Web,
            build: |s| web_like(scale_pow2(32_768, s), sc(500_000, s), 104),
        },
        GraphSpec {
            name: "SD*",
            category: Category::Web,
            build: |s| web_like(scale_pow2(131_072, s), sc(2_500_000, s), 105),
        },
        // --- Road (near-planar, huge diameter) --------------------------
        GraphSpec {
            name: "CA*",
            category: Category::Road,
            build: |s| {
                let n = sc(250_000, s);
                random_geometric(n, geometric::road_like_radius(n), 106)
            },
        },
        GraphSpec {
            name: "GE*",
            category: Category::Road,
            build: |s| {
                let n = sc(500_000, s);
                random_geometric(n, geometric::road_like_radius(n), 107)
            },
        },
        // --- k-NN (same point set, sweeping k as GL2–GL20) --------------
        GraphSpec {
            name: "HH5*",
            category: Category::Knn,
            build: |s| knn(sc(150_000, s), 5, 108),
        },
        GraphSpec {
            name: "GL2*",
            category: Category::Knn,
            build: |s| knn(sc(250_000, s), 2, 109),
        },
        GraphSpec {
            name: "GL5*",
            category: Category::Knn,
            build: |s| knn(sc(250_000, s), 5, 109),
        },
        GraphSpec {
            name: "GL10*",
            category: Category::Knn,
            build: |s| knn(sc(250_000, s), 10, 109),
        },
        GraphSpec {
            name: "GL15*",
            category: Category::Knn,
            build: |s| knn(sc(250_000, s), 15, 109),
        },
        GraphSpec {
            name: "GL20*",
            category: Category::Knn,
            build: |s| knn(sc(250_000, s), 20, 109),
        },
        GraphSpec {
            name: "COS5*",
            category: Category::Knn,
            build: |s| knn(sc(400_000, s), 5, 110),
        },
        // --- Synthetic (exact reproductions, scaled) ---------------------
        GraphSpec {
            name: "SQR",
            category: Category::Synthetic,
            build: |s| {
                let side = sc(1000, s.sqrt());
                grid2d(side, side, true)
            },
        },
        GraphSpec {
            name: "REC",
            category: Category::Synthetic,
            build: |s| grid2d(sc(100, s.sqrt()), sc(10_000, s.sqrt()), true),
        },
        GraphSpec {
            name: "SQR'",
            category: Category::Synthetic,
            build: |s| {
                let side = sc(1000, s.sqrt());
                grid2d_sampled(side, side, 0.6, 111)
            },
        },
        GraphSpec {
            name: "REC'",
            category: Category::Synthetic,
            build: |s| grid2d_sampled(sc(100, s.sqrt()), sc(10_000, s.sqrt()), 0.6, 112),
        },
        GraphSpec {
            name: "Chn6",
            category: Category::Synthetic,
            build: |s| path(sc(1_000_000, s)),
        },
        GraphSpec {
            name: "Chn7",
            category: Category::Synthetic,
            build: |s| path(sc(10_000_000, s)),
        },
    ]
}

/// Scale a power-of-two vertex count, keeping it a power of two (R-MAT).
fn scale_pow2(n: usize, s: f64) -> u32 {
    let target = (n as f64 * s).max(16.0);
    (target.log2().round() as u32).clamp(4, 30)
}

/// A fast subset for smoke tests and criterion benches.
pub fn small_suite() -> Vec<GraphSpec> {
    suite()
        .into_iter()
        .filter(|s| matches!(s.name, "YT*" | "GG*" | "CA*" | "GL5*" | "SQR" | "Chn6"))
        .collect()
}

/// Look up specs by a comma-separated name filter (`None` = all).
pub fn filter_suite(names: Option<&str>) -> Vec<GraphSpec> {
    match names {
        None => suite(),
        Some(list) => {
            let wanted: Vec<&str> = list.split(',').map(|x| x.trim()).collect();
            suite()
                .into_iter()
                .filter(|s| {
                    wanted
                        .iter()
                        .any(|w| s.name.trim_end_matches('*') == w.trim_end_matches('*'))
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_build_at_tiny_scale() {
        for spec in suite() {
            let g = spec.build(0.01);
            assert!(g.n() > 0, "{} built empty", spec.name);
            assert!(g.is_symmetric(), "{} asymmetric", spec.name);
        }
    }

    #[test]
    fn filter_matches_names() {
        let f = filter_suite(Some("SQR,Chn6"));
        assert_eq!(f.len(), 2);
        assert!(filter_suite(Some("YT")).iter().any(|s| s.name == "YT*"));
        assert_eq!(filter_suite(None).len(), suite().len());
    }

    #[test]
    fn small_suite_covers_every_category() {
        let cats: std::collections::HashSet<_> = small_suite().iter().map(|s| s.category).collect();
        assert_eq!(cats.len(), 5);
    }
}
