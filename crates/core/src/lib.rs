//! # fastbcc-core — the FAST-BCC algorithm
//!
//! *Fencing an Arbitrary Spanning Tree*: the first parallel biconnectivity
//! algorithm with `O(n + m)` expected work, `O(log³ n)` span w.h.p., and
//! `O(n)` auxiliary space (Dong, Wang, Gu, Sun — PPoPP 2023).
//!
//! The algorithm (paper Alg. 1) has four steps, all implemented here on top
//! of the substrate crates:
//!
//! 1. **First-CC** — compute a spanning forest of `G` with the LDD-UF-JTB
//!    connectivity algorithm (`fastbcc-connectivity`);
//! 2. **Rooting** — root every tree with the Euler tour technique
//!    (`fastbcc-ett`);
//! 3. **Tagging** — compute `first/last/w1/w2/low/high/parent` per vertex;
//!    `low`/`high` are 1-D range min/max queries over the Euler order
//!    ([`tags`], using the sparse table from `fastbcc-primitives`);
//! 4. **Last-CC** — run connectivity on the **implicit skeleton** (`G`
//!    minus fence and back edges, decided in `O(1)` per edge from the
//!    tags — [`Tags::in_skeleton`]), then assign a component head per label
//!    ([`algo`]).
//!
//! At thread budgets up to [`engine::DFS_MAX_BUDGET`] (2) the [`engine`]
//! swaps the four steps for one iterative DFS ([`dfs`]) that writes the
//! same representation; the pipeline stays reachable at every budget
//! through [`BccEngine::solve_fast_bcc`] and [`fast_bcc`].
//!
//! The output is the paper's `O(n)` BCC representation: a label per vertex
//! plus a *component head* per label; a BCC is one label class together
//! with its head ([`postprocess`] derives articulation points, bridges,
//! explicit BCC vertex sets, and the canonical form the tests compare
//! against baselines).

pub mod algo;
pub mod block_cut_tree;
pub mod dfs;
pub mod dynamic;
pub mod engine;
pub mod postprocess;
pub mod query;
pub mod space;
pub mod tags;

pub use algo::{fast_bcc, BccOpts, BccResult, Breakdown, CcScheme};
pub use block_cut_tree::{block_cut_tree, BlockCutTree};
pub use dynamic::{ApplyReport, FALLBACK_REASONS};
pub use engine::{BccEngine, Workspace};
pub use postprocess::{articulation_points, bridges, canonical_bccs, largest_bcc_size};
pub use query::{random_mixed_batch, BccIndex, Query, QueryAnswer, QueryScratch};
pub use tags::Tags;
