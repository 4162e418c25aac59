//! **Figure 5**: per-phase running-time breakdown (First-CC, Rooting,
//! Tagging, Last-CC), FAST-BCC vs the GBBS-style BFS-skeleton baseline.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin fig5_breakdown -- \
//!     [--scale 0.1] [--reps 3] [--threads 0] [--graphs ...] [--json PATH]
//! ```
//!
//! `--json` additionally writes one JSON object per (graph, algo) with the
//! per-phase seconds and the per-phase baseline-over-ours speedups, so the
//! breakdown can be charted without scraping the table.
//!
//! The paper's headline observation should reproduce: on large-diameter
//! graphs the baseline's *Rooting* (BFS) and *Tagging* (level-synchronous
//! sweeps) bars dwarf FAST-BCC's ETT/RMQ equivalents.

use fastbcc_baselines::bfs_bcc;
use fastbcc_bench::measure::{time_median, write_json_lines, Args, Record};
use fastbcc_bench::runner::RunOpts;
use fastbcc_bench::suite::filter_suite;
use fastbcc_core::{fast_bcc, BccOpts, Breakdown};
use fastbcc_primitives::with_threads;

fn row(label: &str, b: &Breakdown) {
    println!(
        "  {:<8} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
        label,
        b.first_cc.as_secs_f64(),
        b.rooting.as_secs_f64(),
        b.tagging.as_secs_f64(),
        b.last_cc.as_secs_f64(),
        b.total().as_secs_f64()
    );
}

/// The four phases plus the total: (seconds column, speedup column,
/// seconds).
fn phases(b: &Breakdown) -> [(&'static str, &'static str, f64); 5] {
    [
        (
            "first_cc_secs",
            "speedup_first_cc",
            b.first_cc.as_secs_f64(),
        ),
        ("rooting_secs", "speedup_rooting", b.rooting.as_secs_f64()),
        ("tagging_secs", "speedup_tagging", b.tagging.as_secs_f64()),
        ("last_cc_secs", "speedup_last_cc", b.last_cc.as_secs_f64()),
        ("total_secs", "speedup_total", b.total().as_secs_f64()),
    ]
}

fn main() {
    let args = Args::parse();
    let opts = RunOpts::from_args(&args);
    let (reps, p) = (opts.reps, opts.effective_threads());

    println!("fig5: phase breakdown in seconds ({p} threads)");
    let mut records = Vec::new();
    for spec in filter_suite(opts.names.as_deref()) {
        let g = spec.build(opts.scale);
        let (n, m) = (g.n(), g.m_undirected());
        println!("=== {} (n={n}, m={m}) ===", spec.name);
        println!(
            "  {:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "", "First-CC", "Rooting", "Tagging", "Last-CC", "total"
        );
        let (ours, _) = with_threads(p, || time_median(reps, || fast_bcc(&g, BccOpts::default())));
        row("Ours", &ours.breakdown);
        let (gbbs, _) = with_threads(p, || time_median(reps, || bfs_bcc(&g, 7)));
        row("GBBS*", &gbbs.breakdown);

        let (ours_t, gbbs_t) = (phases(&ours.breakdown), phases(&gbbs.breakdown));
        let mut ours_rec = Record::new(spec.name, "fast_bcc", n, p).int("m", m);
        let mut gbbs_rec = Record::new(spec.name, "bfs_bcc", n, p).int("m", m);
        for (&(secs, _, ours), &(_, _, gbbs)) in ours_t.iter().zip(&gbbs_t) {
            ours_rec = ours_rec.num(secs, ours);
            gbbs_rec = gbbs_rec.num(secs, gbbs);
        }
        // The baseline row also carries the per-phase `baseline / ours`
        // speedups.
        for (&(_, speedup, ours), &(_, _, gbbs)) in ours_t.iter().zip(&gbbs_t) {
            gbbs_rec = gbbs_rec.num(speedup, gbbs / ours.max(1e-9));
        }
        records.push(ours_rec);
        records.push(gbbs_rec);
    }
    write_json_lines(args.get("--json"), &records);
}
