//! **Query index**: build-then-serve throughput of the
//! [`fastbcc_core::query::BccIndex`] over the Tab. 2 suite.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin queries -- \
//!     [--scale 0.1] [--reps 3] [--batch 200000] [--threads 0] \
//!     [--graphs SQR,Chn6] [--json BENCH_query_index.json]
//! ```
//!
//! Per suite row: solve once with a pooled engine, build the index, then
//! serve warm mixed batches (25% each of `same_bcc` / `is_articulation` /
//! `is_bridge` / `cut_vertices_on_path`) through one pooled
//! [`QueryScratch`]. Reported: queries/sec and build time (medians over
//! `--reps`), index bytes against the [`query_index_budget_bytes`]
//! budget, and the warm batches' `fresh_alloc_bytes` — which the
//! `bench-smoke` CI gate requires to be 0, the same discipline as the
//! solver's warm path.

use fastbcc_bench::measure::{fmt_secs, geomean, time_median, write_json_lines, Args, Record};
use fastbcc_bench::runner::RunOpts;
use fastbcc_bench::suite::filter_suite;
use fastbcc_core::query::{random_mixed_batch, QueryScratch};
use fastbcc_core::space::query_index_budget_bytes;
use fastbcc_core::{BccEngine, BccOpts};
use fastbcc_primitives::with_threads;

fn main() {
    let args = Args::parse();
    let opts = RunOpts::from_args(&args);
    let batch = args.get_usize("--batch", 200_000);
    let p = opts.effective_threads();
    eprintln!(
        "queries: scale={} reps={} threads={p} batch={batch}",
        opts.scale, opts.reps
    );

    println!(
        "{:<6} {:>9} {:>10} {:>8} {:>8} {:>8} | {:>9} {:>12} {:>11} {:>6}",
        "graph", "n", "m", "blocks", "cuts", "build", "Mquery/s", "index MB", "budget MB", "fresh"
    );
    let mut records = Vec::new();
    let mut qps = Vec::new();
    for spec in filter_suite(opts.names.as_deref()) {
        eprintln!("[build] {} (scale {})", spec.name, opts.scale);
        let g = spec.build(opts.scale);
        let (n, m) = (g.n(), g.m_undirected());
        let (index, build_t, fresh, median) = with_threads(p, || {
            let mut engine = BccEngine::new(BccOpts::default());
            engine.solve(&g);
            let (index, build_t) = time_median(opts.reps, || engine.build_index());
            let queries = random_mixed_batch(n, batch, 0xC0FFEE ^ n as u64);
            let mut scratch = QueryScratch::with_capacity(batch);
            index.answer_batch(&queries, &mut scratch); // warm the pool
            let (fresh, median) = time_median(opts.reps, || {
                index.answer_batch(&queries, &mut scratch);
                scratch.fresh_alloc_bytes()
            });
            (index, build_t, fresh, median)
        });
        let queries_per_sec = batch as f64 / median.as_secs_f64().max(1e-12);
        let (index_bytes, budget) = (index.bytes(), query_index_budget_bytes(n));
        println!(
            "{:<6} {:>9} {:>10} {:>8} {:>8} {:>8} | {:>9.2} {:>12.2} {:>11.2} {:>6}",
            spec.name,
            n,
            m,
            index.num_blocks(),
            index.num_cuts(),
            fmt_secs(build_t),
            queries_per_sec / 1e6,
            index_bytes as f64 / (1 << 20) as f64,
            budget as f64 / (1 << 20) as f64,
            fresh,
        );
        assert!(
            index_bytes <= budget,
            "{}: index {index_bytes} B over the {budget} B budget",
            spec.name,
        );
        qps.push(queries_per_sec);
        records.push(
            Record::new(spec.name, "bcc_index/batch", n, p)
                .int("m", m)
                .int("nodes", index.node_count())
                .int("blocks", index.num_blocks())
                .int("cuts", index.num_cuts())
                .int("batch", batch)
                .num("build_secs", build_t.as_secs_f64())
                .num("queries_per_sec", queries_per_sec)
                .int("index_bytes", index_bytes)
                .int("index_budget_bytes", budget)
                .int("warm_fresh_alloc_bytes", fresh),
        );
    }

    println!(
        "--- geomean over {} graphs: {:.2} Mquery/s (batch {batch}, {p} threads) ---",
        records.len(),
        geomean(&qps) / 1e6
    );

    write_json_lines(args.get("--json"), &records);
}
