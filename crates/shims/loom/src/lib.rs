//! Hermetic in-repo stand-in for the `loom` concurrency model checker.
//!
//! The FAST-BCC workspace builds with no network access, so — like the
//! `rayon` / `proptest` shims — this crate implements, from
//! scratch on `std`, the loom surface the workspace needs to *prove* its
//! hand-rolled synchronization instead of stress-sampling it:
//!
//! * virtualized [`sync::atomic`] atomics, [`sync::Mutex`] /
//!   [`sync::Condvar`], [`thread::spawn`] and [`cell::UnsafeCell`], all
//!   `const`-constructible drop-ins that pass through to `std` outside a
//!   model run;
//! * [`model`] / [`Builder::check`]: a deterministic cooperative
//!   scheduler that runs the closure over and over, exploring a **new
//!   thread interleaving each iteration** (depth-first over every
//!   scheduling decision, bounded by [`Builder::preemption_bound`]),
//!   detecting deadlocks and lost wakeups, data races (vector-clock
//!   happens-before from Acquire/Release pairs, mutexes, fences, and
//!   spawn/join edges), livelocks, and assertion failures;
//! * replayable failures: every [`Failure`] carries the scheduling choice
//!   list that produced it; [`Builder::replay`] (or the
//!   `FASTBCC_LOOM_REPLAY` environment variable) re-runs exactly that
//!   execution.
//!
//! ```
//! use loom::sync::atomic::{AtomicUsize, Ordering};
//! use loom::sync::Arc;
//!
//! let report = loom::Builder::default().check(|| {
//!     let v = Arc::new(AtomicUsize::new(0));
//!     let v2 = Arc::clone(&v);
//!     let t = loom::thread::spawn(move || v2.fetch_add(1, Ordering::Relaxed));
//!     v.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     assert_eq!(v.load(Ordering::Relaxed), 2);
//! });
//! assert!(report.failure.is_none());
//! assert!(report.complete);
//! ```
//!
//! See [`rt`](crate) internals for the exploration algorithm and the
//! model's limits (sequentially consistent value semantics — the same
//! trade-off the real loom makes).

mod rt;

pub mod cell;
pub mod hint;
pub mod sync;
pub mod thread;

pub use rt::{Failure, FailureKind};

use std::sync::Arc;

/// Exploration configuration; `Builder::default()` matches what the
/// workspace's model tests use.
#[derive(Clone, Debug)]
pub struct Builder {
    /// Maximum context switches away from a runnable thread per explored
    /// execution (`None` = unbounded). Two or three preemptions reach the
    /// overwhelming majority of concurrency bugs (CHESS-style bounding)
    /// while keeping the schedule space tractable.
    pub preemption_bound: Option<usize>,
    /// Stop after this many explored interleavings even if alternatives
    /// remain (`Report::complete` turns false).
    pub max_iterations: usize,
    /// Per-iteration step budget; exceeding it fails as a livelock.
    pub max_steps: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Self {
            preemption_bound: Some(2),
            max_iterations: 250_000,
            max_steps: 10_000,
        }
    }
}

/// The outcome of an exploration: how many distinct interleavings ran,
/// whether the bounded space was exhausted, and the first failure found.
#[derive(Debug)]
pub struct Report {
    /// Distinct interleavings executed.
    pub iterations: usize,
    /// True when every schedule within the preemption bound was explored.
    pub complete: bool,
    pub failure: Option<Failure>,
}

impl Builder {
    /// Explore `f` under every thread interleaving within the preemption
    /// bound, returning statistics and the first failure (if any) instead
    /// of panicking — the programmatic face of [`model`].
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        rt::install_abort_hook();
        let f = Arc::new(f);
        if let Ok(replay) = std::env::var("FASTBCC_LOOM_REPLAY") {
            let prefix = parse_replay(&replay);
            let (failure, _) = self.run_once(&f, prefix);
            return Report {
                iterations: 1,
                complete: false,
                failure: failure.map(|mut x| {
                    x.iteration = 1;
                    x
                }),
            };
        }
        let mut prefix = Vec::new();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let (failure, schedule) = self.run_once(&f, prefix);
            if let Some(mut fail) = failure {
                fail.iteration = iterations;
                return Report {
                    iterations,
                    complete: false,
                    failure: Some(fail),
                };
            }
            match rt::next_prefix(&schedule, self.preemption_bound) {
                None => {
                    return Report {
                        iterations,
                        complete: true,
                        failure: None,
                    }
                }
                Some(next) => {
                    if iterations >= self.max_iterations {
                        return Report {
                            iterations,
                            complete: false,
                            failure: None,
                        };
                    }
                    prefix = next;
                }
            }
        }
    }

    /// Re-run the single execution identified by `schedule` (a
    /// [`Failure::schedule`]); returns its failure, if it still occurs.
    pub fn replay<F>(&self, schedule: &[usize], f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        rt::install_abort_hook();
        let f = Arc::new(f);
        let (failure, _) = self.run_once(&f, schedule.to_vec());
        Report {
            iterations: 1,
            complete: false,
            failure: failure.map(|mut x| {
                x.iteration = 1;
                x
            }),
        }
    }

    fn run_once<F>(&self, f: &Arc<F>, prefix: Vec<usize>) -> (Option<Failure>, Vec<rt::Branch>)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let exec = Arc::new(rt::Execution::new(
            rt::Config {
                max_steps: self.max_steps,
            },
            prefix,
        ));
        let f2 = Arc::clone(f);
        rt::spawn_model_thread(&exec, 0, move || f2());
        exec.wait_done()
    }
}

fn parse_replay(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .expect("FASTBCC_LOOM_REPLAY must be a comma-separated list of choice indices")
        })
        .collect()
}

/// Exhaustively explore `f` (within the default preemption bound),
/// panicking with a replayable schedule trace on the first deadlock, lost
/// wakeup, data race, livelock, or assertion failure — the loom entry
/// point.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let report = Builder::default().check(f);
    if let Some(failure) = report.failure {
        panic!("{failure}");
    }
}
