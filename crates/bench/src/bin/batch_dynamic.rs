//! **Batch-dynamic updates**: incremental `BccEngine::apply_batch`
//! throughput versus a warm full re-solve, across churn rates.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin batch_dynamic -- \
//!     [--scale 0.1] [--threads 0] [--rounds 8] \
//!     [--fracs 0.001,0.01,0.1] [--graphs YT,GG] [--json BENCH_batch_dynamic.json]
//! ```
//!
//! Per graph × churn fraction: build the graph, attach the incremental
//! engine, and generate a [`fastbcc_bench::churn`] perturbed-graph
//! schedule (`--rounds` batches, each swapping `frac · m` edges). Every
//! round applies the batch twice — once through `apply_batch` on the
//! attached engine, once as `apply_delta` on the full side's own graph
//! (its own `DeltaScratch` ping-pong) plus a warm full solve of the result
//! on a second pooled engine — and cross-checks the two results
//! (`num_cc` / `num_bcc` every round, canonical BCCs on the last). Both
//! timers therefore include the CSR update, so the speedup compares like
//! with like; outside the timer, the full side's graph must equal the
//! schedule's.
//!
//! Reported per row: mean per-round seconds for both paths, the speedup,
//! update throughput in edges/s (batch edges over incremental seconds),
//! how many rounds stayed incremental vs fell back (with the last
//! fallback reason), the row's totals of the `ApplyReport` mechanism
//! counters (`dels_*`, `adds_*`, and `rehang_vertices`, the vertices the
//! batch-end relabel walks reached), and the maximum warm
//! `fresh_alloc_bytes` over incremental rounds — which the `bench-smoke`
//! CI gate requires to be 0 (the incremental path must run entirely out
//! of pooled memory).
//! Fallback rounds are *kept* in the incremental column: the speedup is
//! what an operator gets, not what the best case gets.

use fastbcc_bench::churn::perturbed_sequence;
use fastbcc_bench::measure::{fmt_secs, geomean, write_json_lines, Args, Record};
use fastbcc_bench::runner::RunOpts;
use fastbcc_bench::suite::filter_suite;
use fastbcc_core::{canonical_bccs, ApplyReport, BccEngine, BccOpts};
use fastbcc_graph::{apply_delta, DeltaScratch};
use fastbcc_primitives::with_threads;
use std::time::{Duration, Instant};

fn main() {
    let args = Args::parse();
    let opts = RunOpts::from_args(&args);
    let rounds = args.get_usize("--rounds", 8);
    let fracs: Vec<f64> = args
        .get("--fracs")
        .unwrap_or("0.001,0.01,0.1")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|e| panic!("bad --fracs entry {s:?}: {e}"))
        })
        .collect();
    let p = opts.effective_threads();
    eprintln!(
        "batch_dynamic: scale={} threads={p} rounds={rounds} fracs={fracs:?}",
        opts.scale
    );

    println!(
        "{:<6} {:>9} {:>10} {:>7} | {:>10} {:>10} {:>8} | {:>12} | {:>5} {:>5} {:>5}",
        "graph",
        "n",
        "m",
        "frac",
        "inc/batch",
        "full/batch",
        "speedup",
        "upd edges/s",
        "inc",
        "fall",
        "fresh"
    );

    let mut records = Vec::new();
    // (frac, speedup, incremental update edges/s) per row, for the
    // per-churn geomeans.
    let mut rates: Vec<(f64, f64, f64)> = Vec::new();
    for spec in filter_suite(opts.names.as_deref()) {
        eprintln!("[build] {} (scale {})", spec.name, opts.scale);
        let g0 = spec.build(opts.scale);
        for (fi, &frac) in fracs.iter().enumerate() {
            let rec = with_threads(p, || {
                let schedule = perturbed_sequence(&g0, rounds, frac, 0xD17A ^ (fi as u64) << 8);
                let mut inc = BccEngine::new(BccOpts::default());
                inc.attach(&g0);
                let mut full = BccEngine::new(BccOpts::default());
                full.solve(&g0); // warm the baseline's pools
                let (mut full_graph, mut full_scratch) = (g0.clone(), DeltaScratch::new());

                let mut inc_total = Duration::ZERO;
                let mut full_total = Duration::ZERO;
                let mut batch_edges = 0usize;
                let mut rounds_incremental = 0usize;
                let mut rounds_fallback = 0usize;
                let mut last_fallback = None;
                let mut warm_fresh_max = 0usize;
                let mut equal = true;
                // Mechanism totals over the row's rounds: which path each
                // deletion and insertion took, and how far the relabel
                // walks reached.
                let mut mech = ApplyReport::default();

                for (round, (delta, g_round)) in schedule.iter().enumerate() {
                    batch_edges += delta.len();

                    let t = Instant::now();
                    inc.apply_batch(&delta.adds, &delta.dels);
                    inc_total += t.elapsed();
                    let (inc_cc, inc_bcc) = (inc.result().num_cc, inc.result().num_bcc);
                    let rep = inc.last_apply_report().expect("apply_batch ran");
                    mech.dels_bridge += rep.dels_bridge;
                    mech.dels_cert_pass += rep.dels_cert_pass;
                    mech.dels_sub_solve += rep.dels_sub_solve;
                    mech.dels_skipped += rep.dels_skipped;
                    mech.adds_noop += rep.adds_noop;
                    mech.adds_merged += rep.adds_merged;
                    mech.adds_linked += rep.adds_linked;
                    mech.adds_rerooted += rep.adds_rerooted;
                    mech.rehang_vertices += rep.rehang_vertices;
                    if rep.incremental {
                        rounds_incremental += 1;
                    } else {
                        rounds_fallback += 1;
                        last_fallback = rep.fallback;
                    }

                    let t = Instant::now();
                    let next = apply_delta(&full_graph, delta, &mut full_scratch);
                    full.solve(&next);
                    full_total += t.elapsed();
                    assert!(
                        next == *g_round,
                        "{}: full side's graph diverged",
                        spec.name
                    );
                    full_scratch.recycle(std::mem::replace(&mut full_graph, next));

                    equal &= inc_cc == full.result().num_cc && inc_bcc == full.result().num_bcc;
                    // Warm-fresh accounting: the first two rounds settle
                    // pooled capacities; later incremental rounds must not
                    // allocate at all.
                    if rep.incremental && round >= 2 {
                        warm_fresh_max = warm_fresh_max.max(inc.result().fresh_alloc_bytes);
                    }
                    if round + 1 == schedule.len() {
                        equal &= canonical_bccs(inc.result()) == canonical_bccs(full.result());
                    }
                }

                let rounds_done = schedule.len().max(1) as f64;
                let inc_secs = inc_total.as_secs_f64();
                let full_secs = full_total.as_secs_f64();
                let speedup = full_secs / inc_secs.max(1e-12);
                let inc_eps = batch_edges as f64 / inc_secs.max(1e-12);
                println!(
                    "{:<6} {:>9} {:>10} {:>7} | {:>10} {:>10} {:>7.1}x | {:>12.0} | {:>5} {:>5} {:>5}",
                    spec.name,
                    g0.n(),
                    g0.m_undirected(),
                    frac,
                    fmt_secs(inc_total.div_f64(rounds_done)),
                    fmt_secs(full_total.div_f64(rounds_done)),
                    speedup,
                    inc_eps,
                    rounds_incremental,
                    rounds_fallback,
                    warm_fresh_max,
                );
                assert!(equal, "{} frac {frac}: incremental != fresh", spec.name);
                rates.push((frac, speedup, inc_eps));
                Record::new(spec.name, "fast_bcc/apply_batch", g0.n(), p)
                    .int("m", g0.m_undirected())
                    .num("frac", frac)
                    .int("rounds", schedule.len())
                    .num("batch_edges_mean", batch_edges as f64 / rounds_done)
                    .num("inc_secs_mean", inc_secs / rounds_done)
                    .num("full_secs_mean", full_secs / rounds_done)
                    .num("speedup", speedup)
                    .num("inc_update_eps", inc_eps)
                    .num("full_update_eps", batch_edges as f64 / full_secs.max(1e-12))
                    .int("rounds_incremental", rounds_incremental)
                    .int("rounds_fallback", rounds_fallback)
                    .str("last_fallback", last_fallback)
                    .int("dels_bridge", mech.dels_bridge)
                    .int("dels_cert_pass", mech.dels_cert_pass)
                    .int("dels_sub_solve", mech.dels_sub_solve)
                    .int("dels_skipped", mech.dels_skipped)
                    .int("adds_noop", mech.adds_noop)
                    .int("adds_merged", mech.adds_merged)
                    .int("adds_linked", mech.adds_linked)
                    .int("adds_rerooted", mech.adds_rerooted)
                    .int("rehang_vertices", mech.rehang_vertices)
                    .int("warm_fresh_alloc_bytes_max", warm_fresh_max)
                    .flag("equal", equal)
            });
            records.push(rec);
        }
    }

    for &frac in &fracs {
        let (speedups, eps): (Vec<f64>, Vec<f64>) = rates
            .iter()
            .filter(|r| r.0 == frac)
            .map(|r| (r.1, r.2))
            .unzip();
        println!(
            "--- frac {frac}: geomean speedup {:.2}x, geomean {:.0} update edges/s over {} graphs ---",
            geomean(&speedups),
            geomean(&eps),
            speedups.len()
        );
    }

    write_json_lines(args.get("--json"), &records);
}
