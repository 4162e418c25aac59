//! **Serving under churn**: read throughput and tail latency of the
//! [`fastbcc_serve`] epoch-swapped query service *while the graph is being
//! rebuilt underneath the readers*.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin serve -- \
//!     [--scale 0.1] [--threads 0] [--readers 0] [--batch 10000] \
//!     [--rebuilds 6] [--frac 0.01] [--graphs SQR,Chn6] [--json BENCH_serve.json]
//! ```
//!
//! Per suite row: start a service on the graph, then run one *rebuilder*
//! task concurrently with `--readers` reader tasks, each serving warm
//! mixed batches through its own pooled reader and timing every batch.
//! The rebuilder drives the service through a [`fastbcc_bench::churn`]
//! perturbed-graph schedule (`--rebuilds` batches, each swapping
//! `--frac · m` edges, the same generator the `batch_dynamic` bench
//! uses), publishing one snapshot per batch through the incremental
//! delta path, then raises the stop flag. Batches that overlap a rebuild
//! window are classified separately, so the artifact answers the
//! operational question directly: *what do p50/p99/p999 look like during
//! a rebuild, not just between rebuilds?*
//!
//! Reported per graph: aggregate queries/sec over the wall of the mixed
//! phase, overall and during-rebuild batch-latency percentiles, snapshot
//! lifecycle counters (published / retired / dropped / backlog), and the
//! readers' maximum warm `fresh_alloc_bytes` — which the `bench-smoke` CI
//! gate requires to be 0 (pre-sized scratch, zero allocation on the read
//! path).
//!
//! Concurrency note: the fan-out runs on the workspace runtime via
//! [`fastbcc_serve::run_concurrent`]; the rebuilder is the driver (listed
//! first), and readers serve at least two batches even if the whole
//! schedule degenerates to sequential under `FASTBCC_THREADS=1` — the
//! during-rebuild columns are then empty (count 0), never missing.

use fastbcc_bench::churn::perturbed_sequence;
use fastbcc_bench::measure::{fmt_secs, geomean, write_json_lines, Args, Record};
use fastbcc_bench::runner::RunOpts;
use fastbcc_bench::suite::filter_suite;
use fastbcc_core::query::random_mixed_batch;
use fastbcc_core::BccOpts;
use fastbcc_primitives::with_threads;
use fastbcc_serve::{run_concurrent, start, ServeOpts};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One reader task's measurements: (batch wall ns, overlapped a rebuild)
/// per batch, plus the worst warm fresh-allocation observation.
struct ReaderSample {
    latencies: Vec<(u64, bool)>,
    fresh_alloc_bytes_max: usize,
    queries: u64,
}

/// Percentile over sorted nanosecond samples, in microseconds (0.0 when
/// empty — "no samples", distinguishable via the count columns).
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

fn main() {
    let args = Args::parse();
    let opts = RunOpts::from_args(&args);
    let batch = args.get_usize("--batch", 10_000);
    let rebuilds = args.get_usize("--rebuilds", 6);
    let frac = args.get_f64("--frac", 0.01);
    let p = opts.effective_threads();
    let readers = match args.get_usize("--readers", 0) {
        0 => p.saturating_sub(1).max(1),
        r => r,
    };
    eprintln!(
        "serve: scale={} threads={p} readers={readers} batch={batch} rebuilds={rebuilds} frac={frac}",
        opts.scale
    );

    println!(
        "{:<6} {:>9} {:>10} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>7} {:>5}",
        "graph",
        "n",
        "m",
        "Mquery/s",
        "p50 us",
        "p99 us",
        "p999 us",
        "reb p99",
        "rebuild",
        "batches",
        "fresh"
    );

    let mut records = Vec::new();
    let mut qps = Vec::new();
    for spec in filter_suite(opts.names.as_deref()) {
        eprintln!("[build] {} (scale {})", spec.name, opts.scale);
        let g = spec.build(opts.scale);
        let rec = with_threads(p, || {
            let serve_opts = ServeOpts {
                batch_capacity: batch,
                max_readers: readers + 1,
                bcc: BccOpts::default(),
            };
            let (handle, mut rebuilder) = start(&g, serve_opts);
            let stop = Arc::new(AtomicBool::new(false));
            let (tx, rx) = mpsc::channel::<ReaderSample>();
            // The churn schedule the service is pushed through: one delta
            // per rebuild, shared with the `batch_dynamic` bench so both
            // artifacts measure the same update stream.
            let schedule = perturbed_sequence(&g, rebuilds, frac, 0x5EE5);
            let g = Arc::new(g);

            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(readers + 1);
            // Driver first: publishes one snapshot per churn batch
            // back-to-back through the incremental delta path, then stops
            // the readers. Runs inline on the calling thread, so a
            // sequential schedule terminates (module docs of
            // `fastbcc_serve::harness`).
            {
                let stop = stop.clone();
                tasks.push(Box::new(move || {
                    for (delta, _) in &schedule {
                        rebuilder.rebuild_delta(&delta.adds, &delta.dels);
                    }
                    rebuilder.reclaim();
                    stop.store(true, Ordering::Release);
                }));
            }
            for r in 0..readers {
                let stop = stop.clone();
                let tx = tx.clone();
                let handle = handle.clone();
                let g = g.clone();
                tasks.push(Box::new(move || {
                    let mut reader = handle.reader();
                    let queries = random_mixed_batch(g.n(), batch, 0x5E17E ^ r as u64);
                    let stats = handle.stats();
                    let mut sample = ReaderSample {
                        latencies: Vec::with_capacity(1024),
                        fresh_alloc_bytes_max: 0,
                        queries: 0,
                    };
                    // Serve until the driver stops us, but always at
                    // least two batches so the sequential fallback (all
                    // rebuilds already done) still measures warm serving.
                    while !stop.load(Ordering::Acquire) || sample.latencies.len() < 2 {
                        let before = stats.rebuild_in_flight();
                        let t = Instant::now();
                        let served = reader.answer_batch(&queries);
                        let ns = t.elapsed().as_nanos() as u64;
                        debug_assert!(served.version >= 1);
                        let during = before || stats.rebuild_in_flight();
                        sample.latencies.push((ns, during));
                        sample.queries += batch as u64;
                        sample.fresh_alloc_bytes_max =
                            sample.fresh_alloc_bytes_max.max(reader.fresh_alloc_bytes());
                    }
                    tx.send(sample).expect("collector alive");
                }));
            }
            drop(tx);

            let wall_t = Instant::now();
            run_concurrent(tasks);
            let wall = wall_t.elapsed();

            let mut all_ns: Vec<u64> = Vec::new();
            let mut rebuild_ns: Vec<u64> = Vec::new();
            let mut queries_total = 0u64;
            let mut fresh_max = 0usize;
            for sample in rx.iter() {
                queries_total += sample.queries;
                fresh_max = fresh_max.max(sample.fresh_alloc_bytes_max);
                for (ns, during) in sample.latencies {
                    all_ns.push(ns);
                    if during {
                        rebuild_ns.push(ns);
                    }
                }
            }
            all_ns.sort_unstable();
            rebuild_ns.sort_unstable();

            let rep = handle.stats_report();
            assert_eq!(
                rep.published_version,
                rebuilds as u64 + 1,
                "every rebuild published"
            );
            let queries_per_sec = queries_total as f64 / wall.as_secs_f64().max(1e-12);
            let (p50, p99, p999) = (
                percentile_us(&all_ns, 0.50),
                percentile_us(&all_ns, 0.99),
                percentile_us(&all_ns, 0.999),
            );
            let rebuild_p99 = percentile_us(&rebuild_ns, 0.99);
            let rebuild_secs_mean = rep.rebuild_secs_total / rep.rebuilds.max(1) as f64;
            println!(
                "{:<6} {:>9} {:>10} | {:>9.2} {:>9.1} {:>9.1} {:>9.1} | {:>9.1} {:>9} {:>7} {:>5}",
                spec.name,
                g.n(),
                g.m_undirected(),
                queries_per_sec / 1e6,
                p50,
                p99,
                p999,
                rebuild_p99,
                fmt_secs(std::time::Duration::from_secs_f64(rebuild_secs_mean)),
                all_ns.len(),
                fresh_max,
            );
            qps.push(queries_per_sec);
            Record::new(spec.name, "serve", g.n(), p)
                .int("m", g.m_undirected())
                .int("readers", readers)
                .int("batch", batch)
                .int("rebuilds", rebuilds)
                .num("frac", frac)
                .int("rebuilds_incremental", rep.rebuilds_incremental as usize)
                .int("rebuilds_full", rep.rebuilds_full as usize)
                .num("wall_secs", wall.as_secs_f64())
                .num("queries_per_sec", queries_per_sec)
                .int("batches_total", all_ns.len())
                .int("batches_during_rebuild", rebuild_ns.len())
                .num("p50_us", p50)
                .num("p99_us", p99)
                .num("p999_us", p999)
                .num("rebuild_p50_us", percentile_us(&rebuild_ns, 0.50))
                .num("rebuild_p99_us", rebuild_p99)
                .num("rebuild_p999_us", percentile_us(&rebuild_ns, 0.999))
                .num("rebuild_secs_mean", rebuild_secs_mean)
                .int("snapshots_published", rep.snapshots_published as usize)
                .int("snapshots_retired", rep.snapshots_retired as usize)
                .int("snapshots_dropped", rep.snapshots_dropped as usize)
                .int("retire_backlog", rep.retire_backlog as usize)
                .int("reader_warm_fresh_alloc_bytes", fresh_max)
        });
        records.push(rec);
    }

    println!(
        "--- geomean over {} graphs: {:.2} Mquery/s served under churn ({readers} readers, {p} threads) ---",
        records.len(),
        geomean(&qps) / 1e6
    );

    write_json_lines(args.get("--json"), &records);
}
