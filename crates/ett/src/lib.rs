//! # fastbcc-ett
//!
//! The Euler tour technique (Tarjan–Vishkin) — FAST-BCC's *Rooting* step.
//!
//! Given the spanning forest produced by *First-CC*, ETT roots every tree
//! and computes, for each vertex, its parent and the `first`/`last`
//! positions of its appearances on the Euler tour. Subtree containment then
//! becomes interval containment (`u` is an ancestor of `v` iff
//! `first[u] ≤ first[v]` and `last[u] ≥ last[v]`), which is what the
//! `Fence`/`Back` predicates of Alg. 1 test, and `low`/`high` become 1-D
//! range queries over the tour (handled by the core crate's RMQ).
//!
//! Construction (paper §5, *Euler Tour Technique*):
//!
//! 1. replicate each tree edge into two directed arcs and semisort by
//!    source — the forest adjacency built by the connectivity crate already
//!    has this layout;
//! 2. link each incoming arc `u→v` to `v`'s next outgoing arc (circular per
//!    vertex), forming one Euler circuit per tree;
//! 3. flatten the circuits with parallel **list ranking**, coarsened by √n
//!    sampling ([`listrank`]);
//! 4. derive `first`/`last`/`parent` from arc ranks with CAS priority
//!    writes.
//!
//! `O(n)` expected work, `O(log n)` span w.h.p.

pub mod euler;
pub mod listrank;

pub use euler::{root_forest, root_forest_in, EttScratch, RootedForest};
pub use listrank::{rank_circular_lists, rank_circular_lists_in, ListRankScratch};
