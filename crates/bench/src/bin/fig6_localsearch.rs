//! **Figure 6**: the hash-bag + local-search connectivity optimization —
//! FAST-BCC phase breakdowns with the optimization off ("Orig.") and on
//! ("Opt.").
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin fig6_localsearch -- \
//!     [--scale 0.1] [--reps 3] [--threads 0] [--graphs ...]
//! ```
//!
//! Expected shape (paper §C): parity on low-diameter graphs, 1.1–4.5×
//! gains concentrated in the two CC phases on large-diameter graphs.

use fastbcc_bench::measure::{geomean, time_median, Args};
use fastbcc_bench::runner::RunOpts;
use fastbcc_bench::suite::filter_suite;
use fastbcc_core::{fast_bcc, BccOpts, Breakdown};
use fastbcc_primitives::with_threads;

fn row(label: &str, b: &Breakdown) {
    println!(
        "  {:<6} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
        label,
        b.first_cc.as_secs_f64(),
        b.rooting.as_secs_f64(),
        b.tagging.as_secs_f64(),
        b.last_cc.as_secs_f64(),
        b.total().as_secs_f64()
    );
}

fn main() {
    let args = Args::parse();
    let opts = RunOpts::from_args(&args);
    let (scale, reps, p) = (opts.scale, opts.reps, opts.effective_threads());

    println!("fig6: local-search/hash-bag ablation ({p} threads)");
    let mut ratios = Vec::new();
    for spec in filter_suite(opts.names.as_deref()) {
        let g = spec.build(scale);
        println!(
            "=== {} (n={}, m={}) ===",
            spec.name,
            g.n(),
            g.m_undirected()
        );
        println!(
            "  {:<6} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "", "First-CC", "Rooting", "Tagging", "Last-CC", "total"
        );
        let (orig, _) = with_threads(p, || {
            time_median(reps, || {
                fast_bcc(
                    &g,
                    BccOpts {
                        local_search: false,
                        ..Default::default()
                    },
                )
            })
        });
        row("Orig.", &orig.breakdown);
        let (opt, _) = with_threads(p, || {
            time_median(reps, || {
                fast_bcc(
                    &g,
                    BccOpts {
                        local_search: true,
                        ..Default::default()
                    },
                )
            })
        });
        row("Opt.", &opt.breakdown);
        let ratio =
            orig.breakdown.total().as_secs_f64() / opt.breakdown.total().as_secs_f64().max(1e-9);
        println!("  Orig./Opt. = {ratio:.2}x");
        ratios.push(ratio);
    }
    println!(
        "\ngeomean Orig./Opt. = {:.2}x (paper: 1.5x average, up to 5x)",
        geomean(&ratios)
    );
}
