//! **Table 3**: Tarjan–Vishkin running times against Ours / GBBS-style /
//! SEQ on every suite graph.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin table3_tv -- \
//!     [--scale 0.1] [--reps 3] [--threads 0] [--graphs ...]
//! ```
//!
//! Expected shape (paper §D): TV beats SEQ everywhere but loses to
//! FAST-BCC everywhere; it is closest on small edge-to-vertex-ratio
//! graphs (chains, road) where its `O(m)` skeleton is cheap, and worst on
//! dense graphs.

use fastbcc_baselines::{bfs_bcc, hopcroft_tarjan, tarjan_vishkin};
use fastbcc_bench::measure::{fmt_secs, time_median, Args};
use fastbcc_bench::runner::RunOpts;
use fastbcc_bench::suite::filter_suite;
use fastbcc_core::{fast_bcc, BccOpts};
use fastbcc_primitives::with_threads;

fn main() {
    let args = Args::parse();
    let opts = RunOpts::from_args(&args);
    let (scale, reps, p) = (opts.scale, opts.reps, opts.effective_threads());

    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10}",
        "graph", "n", "Ours", "GBBS*", "TV", "SEQ", "TV skel |E'|"
    );
    for spec in filter_suite(opts.names.as_deref()) {
        let g = spec.build(scale);
        let (tv_res, tv) = with_threads(p, || time_median(reps, || tarjan_vishkin(&g, 5)));
        let (ours_res, ours) =
            with_threads(p, || time_median(reps, || fast_bcc(&g, BccOpts::default())));
        let (_, gbbs) = with_threads(p, || time_median(reps, || bfs_bcc(&g, 7)));
        let (ht, seq) = time_median(reps, || hopcroft_tarjan(&g, false));
        assert_eq!(tv_res.num_bcc, ht.num_bcc, "{}: TV mismatch", spec.name);
        assert_eq!(ours_res.num_bcc, ht.num_bcc, "{}: ours mismatch", spec.name);
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10}",
            spec.name,
            g.n(),
            fmt_secs(ours),
            fmt_secs(gbbs),
            fmt_secs(tv),
            fmt_secs(seq),
            tv_res.skeleton_edges,
        );
    }
}
