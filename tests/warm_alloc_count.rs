//! Heap allocations of one warm solve, counted by a counting global
//! allocator on the calling thread.
//!
//! `fresh_alloc_bytes == 0` only says no pooled workspace buffer grew;
//! the transient tables inside the primitives (pack offsets, block
//! bounds, scan block sums, sort histograms) still hit the allocator.
//! This pins their count for the FAST-BCC pipeline
//! (`BccEngine::solve_fast_bcc`). At budget 1 every parallel loop runs
//! inline on the calling thread, so the count is exact and repeats run
//! over run. The DFS `solve` (budgets up to `DFS_MAX_BUDGET`) uses only
//! pooled buffers, so its warm count is 0 on every backend.
//!
//! Measured on `rmat(14, 60000, 3)`: 3,925 allocations while the
//! blocked primitives ran on the rayon shim's iterator adapters (three
//! vectors per terminal), 709 once they run on `par::par_blocks` and
//! `par::par_blocks_collect` directly.
//!
//! A warm `apply_delta` + `DeltaScratch::recycle` cycle makes no heap
//! allocation at all: the two CSR buffers ping-pong between the scratch
//! and the live graph.

use fast_bcc::core::engine::DFS_MAX_BUDGET;
use fast_bcc::graph::{
    apply_delta, load_snapshot, save_snapshot_compressed, CompressedGraph, DeltaScratch,
    GraphDelta, GraphView,
};
use fast_bcc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the thread-local counter
// is a const-initialized `Cell`, so bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Between the two measured counts above, so a return of per-call
/// vectors in the blocked primitives fails it.
const WARM_SOLVE_ALLOC_BOUND: usize = 1_500;

#[test]
fn warm_solve_heap_allocations_are_bounded() {
    with_threads(1, || {
        let g = generators::rmat(14, 60_000, 3);
        let mut engine = BccEngine::new(BccOpts::default());
        engine.solve_fast_bcc(&g);
        let mut counts = Vec::with_capacity(2);
        for _ in 0..2 {
            let before = allocs();
            let fresh = engine.solve_fast_bcc(&g).fresh_alloc_bytes;
            counts.push(allocs() - before);
            assert_eq!(fresh, 0, "warm solve grew a pooled buffer");
        }
        assert_eq!(counts[0], counts[1], "budget-1 counts must repeat");
        assert!(
            counts[0] <= WARM_SOLVE_ALLOC_BOUND,
            "warm solve made {} heap allocations (bound {WARM_SOLVE_ALLOC_BOUND})",
            counts[0]
        );
    });
}

/// Solve cold once through `solve`, then twice warm, asserting the warm
/// solves neither touch the allocator nor grow a pooled buffer.
fn assert_warm_solves_allocate_nothing(what: &str, mut solve: impl FnMut(&mut BccEngine) -> usize) {
    let mut engine = BccEngine::new(BccOpts::default());
    solve(&mut engine);
    for _ in 0..2 {
        let before = allocs();
        let fresh = solve(&mut engine);
        assert_eq!(
            allocs() - before,
            0,
            "{what}: warm DFS solve touched the allocator"
        );
        assert_eq!(fresh, 0, "{what}: warm DFS solve grew a pooled buffer");
    }
}

/// The DFS solve keeps the backend's cursor in every stack frame; on the
/// flat graph, the compressed graph and a mapped compressed snapshot, at
/// both DFS budgets, a warm solve allocates nothing.
#[test]
fn warm_dfs_solve_allocates_nothing() {
    let g = generators::rmat(14, 60_000, 3);
    let cg = CompressedGraph::from_graph(&g);
    let path = std::env::temp_dir().join(format!("fastbcc_warm_dfs_{}", std::process::id()));
    save_snapshot_compressed(&cg, &path).expect("save compressed snapshot");
    let mg = load_snapshot(&path).expect("load compressed snapshot");
    assert_eq!(mg.backend_name(), "compressed-mmap");
    for budget in [1, DFS_MAX_BUDGET] {
        with_threads(budget, || {
            assert_warm_solves_allocate_nothing(&format!("flat, budget {budget}"), |e| {
                e.solve(&g).fresh_alloc_bytes
            });
            assert_warm_solves_allocate_nothing(&format!("compressed, budget {budget}"), |e| {
                e.solve_view(&cg).fresh_alloc_bytes
            });
            assert_warm_solves_allocate_nothing(
                &format!("compressed-mmap, budget {budget}"),
                |e| e.solve_view(&mg).fresh_alloc_bytes,
            );
        });
    }
    drop(mg);
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_apply_delta_cycles_allocate_nothing() {
    let g0 = generators::rmat(12, 16_000, 5);
    let last = (g0.n() - 1) as V;
    // Grow by four edges, two of them on the first and last vertex, then
    // shrink back: the graph alternates between two sizes.
    let grown = [(0, last), (1, last), (0, last - 1), (2, 3)]
        .into_iter()
        .filter(|&(u, v)| !g0.has_edge(u, v))
        .collect::<Vec<_>>();
    assert!(grown.len() >= 3, "the batch must reach vertex 0 and n - 1");
    let deltas = [
        GraphDelta::from_slices(&grown, &[]),
        GraphDelta::from_slices(&[], &grown),
    ];
    let mut scratch = DeltaScratch::new();
    let mut cur = g0.clone();
    let mut cycle = |cur: &mut Graph, i: usize| {
        let next = apply_delta(cur, &deltas[i % 2], &mut scratch);
        scratch.recycle(std::mem::replace(cur, next));
    };
    // Two cycles grow both ping-pong buffers to the larger graph's size.
    for i in 0..4 {
        cycle(&mut cur, i);
    }
    // At budget 1 the parallel sortedness check that debug builds run in
    // `Graph::from_raw_parts` stays inline, so it allocates nothing either.
    let made = with_threads(1, || {
        let before = allocs();
        for i in 4..12 {
            cycle(&mut cur, i);
        }
        allocs() - before
    });
    assert_eq!(made, 0, "warm apply_delta touched the allocator");
    assert_eq!(cur, g0);
}
