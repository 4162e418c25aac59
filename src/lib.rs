//! # fast-bcc
//!
//! **FAST-BCC** — *Provably Fast and Space-Efficient Parallel
//! Biconnectivity* (Dong, Wang, Gu, Sun — PPoPP 2023), reproduced in Rust.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`fast_bcc`] — the parallel BCC algorithm: `O(n + m)` expected work,
//!   `O(log³ n)` span w.h.p., `O(n)` auxiliary space;
//! * [`BccEngine`] — the scratch-pooled repeated-query solver: one
//!   `Workspace` owns every per-phase array, so solving many graphs
//!   amortizes all major allocations (the second solve of a same-shaped
//!   input allocates nothing);
//! * [`BccIndex`] — the batched online-query layer: built once per solve
//!   from the block–cut forest (Euler-tour LCA over a CSR forest), it
//!   answers `same_bcc` / `is_articulation` / `is_bridge` /
//!   `cut_vertices_on_path` in `O(1)`–`O(log n)` and serves parallel
//!   batches allocation-free through a pooled [`QueryScratch`];
//! * [`graph`] — CSR graphs, parallel builders, and the synthetic
//!   generator suite;
//! * [`connectivity`] — LDD-UF-JTB parallel connectivity with spanning
//!   forests;
//! * [`ett`] — Euler tour technique and parallel list ranking;
//! * [`serve`] — the always-on query service: epoch-swapped immutable
//!   index snapshots, wait-free readers, a background rebuilder, and
//!   version-tagged batched answers (see `docs/serving.md`);
//! * [`baselines`] — Hopcroft–Tarjan, Tarjan–Vishkin, and the BFS-skeleton
//!   algorithms the paper compares against;
//! * [`primitives`] — the ParlayLib-equivalent parallel primitive layer.
//!
//! ## Quickstart
//!
//! ```
//! use fast_bcc::prelude::*;
//!
//! // Two triangles sharing vertex 0 (a "bowtie"): two BCCs, one
//! // articulation point.
//! let g = fast_bcc::graph::builder::from_edges(
//!     5,
//!     &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
//! );
//! let r = fast_bcc(&g, BccOpts::default());
//! assert_eq!(r.num_bcc, 2);
//! assert_eq!(articulation_points(&r), vec![0]);
//! ```

pub use fastbcc_baselines as baselines;
pub use fastbcc_connectivity as connectivity;
pub use fastbcc_core as core;
pub use fastbcc_ett as ett;
pub use fastbcc_graph as graph;
pub use fastbcc_primitives as primitives;
pub use fastbcc_serve as serve;

pub use fastbcc_core::{
    fast_bcc, BccEngine, BccIndex, BccOpts, BccResult, Breakdown, CcScheme, Query, QueryAnswer,
    QueryScratch, Workspace,
};

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use fastbcc_core::block_cut_tree::{block_cut_tree, BlockCutTree};
    pub use fastbcc_core::postprocess::{
        articulation_points, bcc_membership_counts, bridges, canonical_bccs, largest_bcc_size,
    };
    pub use fastbcc_core::query::{random_mixed_batch, BccIndex, Query, QueryAnswer, QueryScratch};
    pub use fastbcc_core::{
        fast_bcc, BccEngine, BccOpts, BccResult, Breakdown, CcScheme, Workspace,
    };
    pub use fastbcc_graph::{builder, generators, stats, EdgeList, Graph, NONE, V};
    pub use fastbcc_primitives::with_threads;
    pub use fastbcc_serve::{ServeOpts, ServedBatch, ServiceHandle, ServiceReader};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let g = builder::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let r = fast_bcc(&g, BccOpts::default());
        assert_eq!(r.num_bcc, 2);
        assert_eq!(articulation_points(&r), vec![0]);
        assert!(bridges(&r).is_empty());
    }
}
