//! The one data-parallel iterator the workspace uses:
//! `(lo..hi).into_par_iter().for_each(f)` over a `usize` range.
//!
//! `for_each` splits the range into a few contiguous pieces per worker
//! and hands them straight to [`run_parallel`]; the calling thread and
//! any in-budget pool workers claim pieces with an atomic cursor (see
//! `pool.rs` — the pool bounds total live workers globally, so nested
//! parallel calls never oversubscribe). Piece boundaries depend only on
//! the range length and the worker count, never on timing, and nothing
//! is allocated beyond the pool's job record.

use crate::pool::{current_num_threads, run_parallel};
use std::ops::Range;

/// The parallel-iterator trait, reduced to its one terminal.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync;
}

/// Conversion into a parallel iterator (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// Parallel iterator over a `usize` range.
pub struct RangeParIter {
    range: Range<usize>,
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeParIter;
    fn into_par_iter(self) -> RangeParIter {
        RangeParIter { range: self }
    }
}

impl ParallelIterator for RangeParIter {
    type Item = usize;

    fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let Range { start, end } = self.range;
        let n = end.saturating_sub(start);
        // A few pieces per worker for load balance; one when sequential.
        let threads = current_num_threads();
        let pieces = if threads <= 1 {
            1
        } else {
            (4 * threads).min(n.max(1))
        };
        run_parallel(pieces, &|p| {
            for i in start + p * n / pieces..start + (p + 1) * n / pieces {
                f(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_covers_all() {
        let hits: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        (0usize..5000).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Regression for the scoped-thread shim, where a nested `par_for`
    /// spawned ~threads² OS threads: the pool must bound concurrently
    /// running workers by the installed size and total spawned threads by
    /// the largest budget ever requested.
    #[test]
    fn nested_parallelism_bounds_live_workers() {
        use std::time::Duration;
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let hits: Vec<AtomicUsize> = (0..32 * 32).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            (0usize..32).into_par_iter().for_each(|i| {
                (0usize..32).into_par_iter().for_each(|j| {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(50));
                    hits[i * 32 + j].fetch_add(1, Ordering::SeqCst);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert!(
            peak.load(Ordering::SeqCst) <= 4,
            "{} concurrent workers under with_threads(4)",
            peak.load(Ordering::SeqCst)
        );
        // Workers are global and spawned at most once per budget slot:
        // never more than the largest worker count this test binary uses.
        let cap = crate::current_num_threads().max(4);
        assert!(
            crate::pool_spawn_count() < cap.max(2),
            "pool spawned {} threads (budget cap {})",
            crate::pool_spawn_count(),
            cap
        );
    }
}
