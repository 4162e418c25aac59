//! **Table 2**: graph information, running times and speedups for every
//! suite graph × every algorithm.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin table2 -- \
//!     [--scale 0.1] [--reps 3] [--threads 0] [--graphs SQR,Chn6] \
//!     [--json out.jsonl]
//! ```
//!
//! `--json` additionally writes one JSON record per (graph, algorithm)
//! configuration, including the `aux_peak_bytes` / `fresh_alloc_bytes`
//! space counters, so successive PRs can chart the space trajectory.
//!
//! Column meanings follow the paper: `par.` = parallel time on all
//! threads, `seq.` = the same code on one thread, `spd.` = self-relative
//! speedup, `T_best/ours` = fastest *other* implementation over ours
//! (highlighted yellow in the paper), `n` under SM'14 = no support
//! (disconnected input). `ours.*` is the FAST-BCC pipeline; `eng.seq` is
//! a warm `BccEngine::solve` at budget 1, which takes the DFS solve.

use fastbcc_bench::measure::{fmt_secs, geomean, write_json_lines, Args};
use fastbcc_bench::runner::{run_suite, RowResult, RunOpts};
use fastbcc_bench::suite::Category;

fn main() {
    let args = Args::parse();
    let opts = RunOpts::from_args(&args);
    eprintln!(
        "table2: scale={} reps={} threads={}",
        opts.scale,
        opts.reps,
        opts.effective_threads()
    );
    let rows = run_suite(&opts);

    println!(
        "{:<6} {:>9} {:>10} {:>7} {:>9} {:>8} | {:>8} {:>8} {:>6} | {:>8} | {:>8} {:>8} {:>6} | {:>8} | {:>8} | {:>10}",
        "graph", "n", "m", "D", "#BCC", "|BCC1|%",
        "ours.par", "ours.seq", "spd.", "eng.seq",
        "gbbs.par", "gbbs.seq", "spd.",
        "sm14.par", "SEQ", "Tbest/ours"
    );
    let mut cur_cat: Option<Category> = None;
    for r in &rows {
        if cur_cat != Some(r.category) {
            cur_cat = Some(r.category);
            println!("--- {} ---", r.category.label());
        }
        print_row(r);
    }
    print_means(&rows);

    let records: Vec<_> = rows
        .iter()
        .flat_map(|r| r.records(opts.effective_threads()))
        .collect();
    write_json_lines(args.get("--json"), &records);
}

fn print_row(r: &RowResult) {
    let spd_ours = r.ours_seq.as_secs_f64() / r.ours_par.as_secs_f64().max(1e-9);
    let spd_gbbs = r.gbbs_seq.as_secs_f64() / r.gbbs_par.as_secs_f64().max(1e-9);
    let tbest = r.best_baseline().as_secs_f64() / r.ours_par.as_secs_f64().max(1e-9);
    println!(
        "{:<6} {:>9} {:>10} {:>7} {:>9} {:>7.2}% | {:>8} {:>8} {:>6.2} | {:>8} | {:>8} {:>8} {:>6.2} | {:>8} | {:>8} | {:>10.2}",
        r.name,
        r.n,
        r.m,
        r.diameter,
        r.num_bcc,
        r.largest_pct,
        fmt_secs(r.ours_par),
        fmt_secs(r.ours_seq),
        spd_ours,
        fmt_secs(r.eng_seq),
        fmt_secs(r.gbbs_par),
        fmt_secs(r.gbbs_seq),
        spd_gbbs,
        r.sm14_par.map(fmt_secs).unwrap_or_else(|| "n".into()),
        fmt_secs(r.seq),
        tbest,
    );
}

fn print_means(rows: &[RowResult]) {
    let ours: Vec<f64> = rows
        .iter()
        .map(|r| r.speedup_over_seq(r.ours_par))
        .collect();
    let gbbs: Vec<f64> = rows
        .iter()
        .map(|r| r.speedup_over_seq(r.gbbs_par))
        .collect();
    let tbest: Vec<f64> = rows
        .iter()
        .map(|r| r.best_baseline().as_secs_f64() / r.ours_par.as_secs_f64().max(1e-9))
        .collect();
    let eng_speedup: Vec<f64> = rows
        .iter()
        .map(|r| r.ours_seq.as_secs_f64() / r.eng_seq.as_secs_f64().max(1e-9))
        .collect();
    let eng_over_seq: Vec<f64> = rows
        .iter()
        .map(|r| r.eng_seq.as_secs_f64() / r.seq.as_secs_f64().max(1e-9))
        .collect();
    println!("--- geometric means over {} graphs ---", rows.len());
    println!(
        "speedup over SEQ: ours {:.2}x, gbbs-style {:.2}x; T_best/ours {:.2}x",
        geomean(&ours),
        geomean(&gbbs),
        geomean(&tbest)
    );
    println!(
        "eng.seq: {:.2}x faster than ours.seq, {:.2}x SEQ's time",
        geomean(&eng_speedup),
        geomean(&eng_over_seq)
    );
}
