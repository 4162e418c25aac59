//! The benchmark's workloads: which graph, which snapshot backend, which
//! thread budget, and how much of each phase one run measures.

use fastbcc_graph::generators::geometric::road_like_radius;
use fastbcc_graph::generators::{knn, random_geometric, rmat};
use fastbcc_graph::Graph;

/// Graph family and size, generated from the run's seed.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// R-MAT (Graph500 parameters) on `2^scale` vertices from `samples`
    /// edge draws (duplicates and self-loops removed).
    Rmat { scale: u32, samples: usize },
    /// Random geometric graph at road-network average degree.
    Road { n: usize },
    /// Symmetrized k-nearest-neighbour graph of uniform points.
    Knn { n: usize, k: usize },
}

impl Family {
    pub fn generate(self, seed: u64) -> Graph {
        match self {
            Family::Rmat { scale, samples } => rmat(scale, samples, seed),
            Family::Road { n } => random_geometric(n, road_like_radius(n), seed),
            Family::Knn { n, k } => knn(n, k, seed),
        }
    }
}

/// On-disk snapshot layout the run loads and solves from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Flat,
    Compressed,
}

/// One workload: the graph, its snapshot backend, and the static budget.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub backend: Backend,
    /// Thread budget of the static phases (set-up solve, warm solves);
    /// `None` means one thread per hardware thread. The reader and the
    /// rebuilder always run at budget 1.
    pub static_budget: Option<usize>,
    /// Streamed deltas per round.
    pub deltas_per_round: usize,
}

/// Rounds per run. Each round runs one cold set-up, one warm solve, a
/// quiescent read chunk, and [`Workload::deltas_per_round`] streamed deltas.
pub const ROUNDS: usize = 8;
/// Edges each delta deletes, and inserts.
pub const DELTA_EDGES: usize = 32;
/// Share of a run's measured seconds spent on quiescent reads.
pub const READ_SHARE: f64 = 0.05;
/// Queries per reader batch.
pub const BATCH: usize = 4096;

impl Workload {
    pub fn static_budget(&self) -> usize {
        self.static_budget.unwrap_or_else(crate::sys::nproc)
    }

    /// Deltas in the whole stream.
    pub fn deltas(&self) -> usize {
        ROUNDS * self.deltas_per_round
    }

    /// The same workload on a tiny input, for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny(&self) -> Self {
        let family = match self.family {
            Family::Rmat { .. } => Family::Rmat {
                scale: 10,
                samples: 12_000,
            },
            Family::Road { .. } => Family::Road { n: 3000 },
            Family::Knn { k, .. } => Family::Knn { n: 2000, k },
        };
        Self {
            family,
            ..self.clone()
        }
    }
}

/// Every workload, by name.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "powerlaw",
            family: Family::Rmat {
                scale: 18,
                samples: 4_000_000,
            },
            backend: Backend::Compressed,
            static_budget: None,
            // A delta mostly falls back to a full solve (0.2-0.5 s): 40 deltas,
            // so the freshness tail is p75 with ten samples beyond it.
            deltas_per_round: 5,
        },
        Workload {
            name: "road",
            family: Family::Road { n: 500_000 },
            backend: Backend::Flat,
            static_budget: Some(1),
            // 0.15-0.35 s per delta: 40 deltas, freshness tail p75.
            deltas_per_round: 5,
        },
        Workload {
            name: "knn",
            family: Family::Knn { n: 400_000, k: 10 },
            backend: Backend::Flat,
            static_budget: Some(1),
            // 50-75 ms per delta, so a longer stream costs little: 120
            // deltas, freshness tail p75 with thirty samples beyond.
            deltas_per_round: 15,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
