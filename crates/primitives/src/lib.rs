//! # fastbcc-primitives
//!
//! Parallel primitives underpinning the FAST-BCC reproduction — a Rust
//! equivalent of the slice of ParlayLib that the paper's implementation uses.
//!
//! The paper analyses algorithms in the binary fork–join **work–span model**
//! (Blelloch et al., SPAA'20) executed by a randomized work-stealing
//! scheduler. Rayon provides exactly that execution model; everything *above*
//! raw fork–join — scans, packs, counting/radix sorts, semisort, sparse-table
//! RMQ, concurrent hash bags, priority CAS writes, deterministic parallel
//! RNG — is implemented here from scratch.
//!
//! Each module documents the work/span bounds of its primitive with the
//! citation used by the paper:
//!
//! | module | primitive | work | span |
//! |--------|-----------|------|------|
//! | [`scan`] | prefix sums | `O(n)` | `O(log n)` |
//! | [`reduce`] | reductions | `O(n)` | `O(log n)` |
//! | [`pack`] | filter / pack | `O(n)` | `O(log n)` |
//! | [`sort`] | counting & radix sort | `O(n + K)` | `O(log n)` |
//! | [`semisort`] | group-equal-keys | `O(n)` expected | `O(log n)` |
//! | [`rmq`] | sparse table build | `O(n log n)` | `O(log n)` |
//! | [`hashbag`] | concurrent bag insert | `O(1)` amortized | — |
//! | [`worker_local`] | per-worker scratch arenas | `O(1)` access | — |
//! | [`edgemap`] | sparse/dense frontier expansion | `O(frontier degree)` | `O(log n)` |
//! | [`kernels`] | chunked flat loops (scan/pack/popcount) | `O(n)` | sequential building block |
//!
//! Spans are quoted under the usual assumption of unit-cost atomics
//! (compare-and-swap), as in Section 2 of the paper.

pub mod atomics;
pub mod edgemap;
pub mod hashbag;
pub mod kernels;
pub mod pack;
pub mod par;
pub mod reduce;
pub mod rmq;
pub mod rng;
pub mod scan;
pub mod semisort;
pub mod slice;
pub mod sort;
pub mod worker_local;

pub use edgemap::{ArcCursor, CsrView, EdgeMapMode, EdgeMapScratch, FrontierOp, RawCsr};
pub use par::{
    deque_max_depth, max_workers, num_threads, pool_spawns, steal_count, with_threads, worker_index,
};
pub use slice::UnsafeSlice;
pub use worker_local::WorkerLocal;
