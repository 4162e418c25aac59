//! Thin helpers over the rayon fork–join runtime.
//!
//! The paper's cost model is binary fork–join with randomized work stealing
//! (Blumofe–Leiserson). Rayon implements that model; these helpers add the
//! three things our algorithm code needs on top:
//!
//! 1. **grain-size control** — the analyses assume `O(1)` leaf bodies, and a
//!    practical implementation needs coarsened leaves ([`par_for_grain`]);
//! 2. **blocked loops** — the count–scan–scatter primitives run one piece
//!    per block of a boundary array ([`par_blocks`], [`par_blocks_mut`],
//!    [`par_blocks_collect`]), on top of [`par_for_grain`];
//! 3. **scoped thread pools** — the scalability experiments (Fig. 4) measure
//!    the same code under different worker counts ([`with_threads`]).
//!
//! [`par_for_grain`] is the workspace's one parallel loop; the only other
//! entry into the runtime is `rayon::join`, for fork–join recursion such
//! as [`crate::reduce`].

use crate::slice::UnsafeSlice;
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Default grain size for parallel loops over cheap bodies.
///
/// Chosen so that a leaf task amortizes the ~100ns steal/fork overhead over
/// at least a few microseconds of work; the usual ParlayLib default is of the
/// same order (1024–2048).
pub const DEFAULT_GRAIN: usize = 2048;

/// Number of worker threads in the current rayon pool.
#[inline]
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Run `f` with a worker budget of exactly `n` threads.
///
/// Used by the benchmark harness to produce the thread-sweep curves of
/// Fig. 4. The budget is faithful: however deeply `f` nests parallel
/// operations, at most `n` workers ever run them concurrently. Workers
/// come from the shared persistent pool, so entering a region is cheap
/// (no threads are spawned after the pool is warm).
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// Stable index of the current pool worker (`0..`), or `None` on threads
/// outside the pool — the key for per-worker scratch arrays
/// ([`crate::worker_local::WorkerLocal`]).
#[inline]
pub fn worker_index() -> Option<usize> {
    rayon::current_thread_index()
}

/// Hard ceiling on pool worker identities: every [`worker_index`] the
/// runtime will ever report is `< max_workers()`, for the lifetime of the
/// process (the pool clamps spawning at the hardware parallelism or the
/// `FASTBCC_THREADS` budget, whichever is larger). Per-worker scratch
/// arrays are sized off this constant — one slot per possible worker plus
/// one for non-pool (submitter) threads.
#[inline]
pub fn max_workers() -> usize {
    rayon::pool_max_workers()
}

/// Total pool worker OS threads spawned so far (monotone). A warm
/// workload holds this constant; benchmarks record it to prove measured
/// runs paid no thread-spawn latency.
#[inline]
pub fn pool_spawns() -> usize {
    rayon::pool_spawn_count()
}

/// Successful work-steals from per-worker deques so far (monotone).
/// Benchmarks record it next to [`pool_spawns`] so scheduler behavior is
/// observable in every JSON artifact; a budget-1 run holds it constant.
#[inline]
pub fn steal_count() -> usize {
    rayon::pool_steal_count()
}

/// High-water mark of any pool worker's deque depth so far — how much
/// splittable work the scheduler has exposed to thieves at once.
#[inline]
pub fn deque_max_depth() -> usize {
    rayon::pool_deque_max_depth()
}

/// Parallel for over `0..n` with the default grain size.
#[inline]
pub fn par_for(n: usize, f: impl Fn(usize) + Sync + Send) {
    par_for_grain(n, DEFAULT_GRAIN, f)
}

/// Parallel for over `0..n`, splitting into chunks of at least `grain`
/// indices. `O(n)` work, `O(grain + log n)` span.
pub fn par_for_grain(n: usize, grain: usize, f: impl Fn(usize) + Sync + Send) {
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    if n <= grain {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let chunks = n.div_ceil(grain);
    (0..chunks).into_par_iter().for_each(|c| {
        let lo = c * grain;
        let hi = (lo + grain).min(n);
        for i in lo..hi {
            f(i);
        }
    });
}

/// Run `f(b, bounds[b]..bounds[b + 1])` for every block `b` of a
/// boundary array (`bounds.len() - 1` blocks, as from [`block_bounds`]),
/// one parallel piece per block.
pub fn par_blocks(bounds: &[usize], f: impl Fn(usize, Range<usize>) + Sync + Send) {
    par_for_grain(bounds.len().saturating_sub(1), 1, |b| {
        f(b, bounds[b]..bounds[b + 1])
    });
}

/// [`par_blocks`] over the blocks of `a`: `f(b, &mut a[bounds[b]..bounds[b + 1]])`.
/// `bounds` must be nondecreasing and end at most at `a.len()`.
pub fn par_blocks_mut<T: Send + Sync>(
    a: &mut [T],
    bounds: &[usize],
    f: impl Fn(usize, &mut [T]) + Sync + Send,
) {
    assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    assert!(bounds.last().is_none_or(|&hi| hi <= a.len()));
    let view = UnsafeSlice::new(a);
    par_blocks(bounds, |b, r| {
        // SAFETY: nondecreasing in-bounds boundaries (asserted above) make
        // the block ranges pairwise disjoint, and block `b` runs once.
        f(b, unsafe { view.slice_mut(r.start, r.len()) })
    });
}

/// One value per block of `bounds`, in block order: `[f(0, ..), f(1, ..), ...]`
/// computed as in [`par_blocks`]. Allocates only the returned vector,
/// with room for one more element so a per-block count table can append
/// its total (becoming a boundary array) without reallocating.
pub fn par_blocks_collect<T: Send + Sync>(
    bounds: &[usize],
    f: impl Fn(usize, Range<usize>) -> T + Sync + Send,
) -> Vec<T> {
    let blocks = bounds.len().saturating_sub(1);
    let mut out = Vec::with_capacity(blocks + 1);
    {
        let view = UnsafeSlice::new(&mut out.spare_capacity_mut()[..blocks]);
        par_blocks(bounds, |b, r| {
            // SAFETY: block `b` alone writes slot `b`, exactly once.
            unsafe { view.write(b, MaybeUninit::new(f(b, r))) }
        });
    }
    // SAFETY: `par_blocks` returned, so every slot in `0..blocks` was
    // initialized above (a panicking block unwinds before this point and
    // leaks the written values instead).
    unsafe { out.set_len(blocks) };
    out
}

/// Number of blocks used by block-based primitives (scan, pack, histogram).
///
/// We want enough blocks for load balance (at most 4× the worker count)
/// but few enough that the sequential over-blocks pass is negligible.
#[inline]
pub fn num_blocks(n: usize, grain: usize) -> usize {
    if n == 0 {
        1
    } else {
        n.div_ceil(grain.max(1))
            .min(4 * num_threads().max(1))
            .max(1)
    }
}

/// Split `0..n` into `blocks` nearly-equal contiguous ranges; returns the
/// boundaries (length `blocks + 1`, first 0, last `n`).
pub fn block_bounds(n: usize, blocks: usize) -> Vec<usize> {
    let blocks = blocks.max(1);
    let mut b = Vec::with_capacity(blocks + 1);
    for i in 0..=blocks {
        b.push(i * n / blocks);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_for_visits_every_index_once() {
        let n = 10_007;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_and_single() {
        par_for(0, |_| panic!("must not be called"));
        let hit = AtomicUsize::new(0);
        par_for(1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_for_grain_one() {
        let n = 513;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_grain(n, 1, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn block_bounds_cover_range() {
        for n in [0usize, 1, 7, 100, 1000] {
            for blocks in [1usize, 2, 3, 8, 64] {
                let b = block_bounds(n, blocks);
                assert_eq!(b.len(), blocks + 1);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().unwrap(), n);
                assert!(b.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    /// Per-block results come back in block order at every budget.
    #[test]
    fn collect_is_identical_across_thread_counts() {
        let hash =
            |r: Range<usize>| r.fold(0u64, |h, i| h ^ (i as u64).wrapping_mul(2_654_435_761));
        let bounds = block_bounds(40_000, 16);
        let reference: Vec<u64> = bounds.windows(2).map(|w| hash(w[0]..w[1])).collect();
        for k in [1usize, 2, 4] {
            let got = with_threads(k, || par_blocks_collect(&bounds, |_, r| hash(r)));
            assert_eq!(got, reference, "collect diverged at {k} threads");
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let caller = std::thread::current().id();
        let bounds = block_bounds(100, 8);
        let got = with_threads(1, || {
            par_blocks_collect(&bounds, |b, r| {
                assert_eq!(std::thread::current().id(), caller);
                (b, r.start, r.end)
            })
        });
        let want: Vec<_> = (0..8).map(|b| (b, bounds[b], bounds[b + 1])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_blocks_mut_hands_each_block_its_slice() {
        let bounds = [0, 3, 3, 7, 10];
        for k in [1usize, 2, 4] {
            let mut v = vec![0usize; 10];
            with_threads(k, || {
                par_blocks_mut(&mut v, &bounds, |b, blk| blk.fill(b));
            });
            assert_eq!(v, [0, 0, 0, 2, 2, 2, 2, 3, 3, 3], "threads={k}");
        }
    }

    #[test]
    fn with_threads_runs_with_requested_parallelism() {
        let t = with_threads(2, num_threads);
        assert_eq!(t, 2);
        let t = with_threads(1, num_threads);
        assert_eq!(t, 1);
    }

    /// Acceptance: a `with_threads(k)` region never exceeds `k`
    /// concurrently-running workers, for k ∈ {1, 2, 4}, regardless of the
    /// hardware thread count.
    #[test]
    fn with_threads_bounds_concurrent_workers() {
        for k in [1usize, 2, 4] {
            let active = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            with_threads(k, || {
                par_for_grain(64, 1, |_| {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak >= 1);
            assert!(
                peak <= k,
                "{peak} concurrent workers under with_threads({k})"
            );
        }
    }

    #[test]
    fn worker_index_absent_on_external_threads() {
        assert_eq!(worker_index(), None);
    }
}
