//! Hermetic stand-in for the `rayon` crate.
//!
//! The FAST-BCC workspace must build with no network access, so this crate
//! implements — from scratch, on `std::thread` — exactly the rayon surface
//! the workspace uses:
//!
//! * [`join`], [`current_num_threads`], [`current_thread_index`],
//!   [`ThreadPoolBuilder`] / [`ThreadPool::install`] (scoped worker counts,
//!   used by `fastbcc_primitives::par::with_threads` for the Fig. 4 sweeps);
//! * [`prelude`] — `(lo..hi).into_par_iter().for_each(f)` over a `usize`
//!   range, the one parallel loop `fastbcc_primitives::par::par_for_grain`
//!   is built on.
//!
//! Execution model: a **persistent work-stealing pool** (see `pool.rs`).
//! Worker threads spawn lazily, once, and park on a condvar between
//! operations; each parallel operation publishes a type-erased job whose
//! contiguous pieces are claimed by the calling thread and by however
//! many pool workers the installed budget admits. Workers claim piece
//! *ranges*, split them onto per-worker Chase–Lev deques, and steal from
//! a random victim when idle, parking only after a bounded steal-spin
//! finds nothing ([`pool_steal_count`] / [`pool_deque_max_depth`] expose
//! this). `join` publishes its right branch the same way and runs it
//! inline only if no worker attached to it. An installed pool size of `k`
//! is enforced as a
//! shared ticket budget across arbitrarily nested operations, so
//! `install` regions never run more than `k` workers and a warm workload
//! spawns zero new OS threads ([`pool_spawn_count`]). With a size of 1,
//! everything runs inline on the calling thread, which keeps
//! single-thread runs fully deterministic. Piece boundaries depend only
//! on the range length and the installed worker count.
//!
//! The default worker budget honors the `FASTBCC_THREADS` environment
//! variable (a positive integer), falling back to the hardware
//! parallelism.
//!
//! Swap this shim for the real crate by pointing the workspace `rayon`
//! dependency at crates.io. The shim-specific extensions are
//! [`pool_spawn_count`], [`pool_steal_count`] and
//! [`pool_deque_max_depth`] (observability counters) and
//! [`pool_max_workers`] (the ceiling on worker identities that per-worker
//! scratch arrays are sized for — with real rayon, the pool's configured
//! thread count plays this role); all four are read only through
//! `fastbcc_primitives::par`, never in the algorithm crates' hot paths.

mod iter;
mod pool;
mod sync;

pub use pool::{
    current_num_threads, current_thread_index, join, pool_deque_max_depth, pool_max_workers,
    pool_spawn_count, pool_steal_count, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelIterator};
}

pub use iter::{IntoParallelIterator, ParallelIterator};
