//! Graph-backend scaling benchmark: solve one R-MAT graph an order of
//! magnitude past the default suite's edge ceiling on every
//! [`fastbcc_graph::GraphView`] backend — flat CSR, compressed blocks,
//! and the zero-copy mmap-loaded variant of each — and record time and
//! space per backend.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin graph_backend -- \
//!     [--scale 16] [--edges 12000000] [--reps 3] [--seed 42] \
//!     [--json BENCH_graph_backend.json]
//! ```
//!
//! The claims this artifact backs:
//!
//! * **Scale**: the default suite at `--scale 0.1` tops out near one
//!   million edges; this run solves ≥10× that (`--edges` directed-arc
//!   pairs before dedup) in the same process RAM envelope, because the
//!   compressed backend's per-block streaming decode needs no flat
//!   neighbor arrays and the solver's auxiliary space stays `O(n)`.
//! * **Space**: `graph_bytes / m` (bytes per undirected edge) must be
//!   strictly smaller for the compressed backends than the flat ones on
//!   a graph this dense.
//! * **Warm solves allocate nothing**: after the cold solve sizes the
//!   pooled workspace, every re-solve on every backend reports
//!   `fresh_alloc_bytes == 0` (asserted here, not just recorded).
//! * **Agreement**: all four backends produce identical BCC counts.

use fastbcc_bench::measure::{time_median, write_json_lines, Args, Record};
use fastbcc_core::{BccEngine, BccOpts};
use fastbcc_graph::generators::rmat;
use fastbcc_graph::{
    load_snapshot, save_snapshot, save_snapshot_compressed, CompressedGraph, GraphView,
};

/// One backend's measured row.
struct Row {
    backend: &'static str,
    graph_bytes: usize,
    graph_capacity_bytes: usize,
    cold_secs: f64,
    warm_secs: f64,
    cold_fresh: usize,
    warm_fresh: usize,
    aux_peak: usize,
    num_bcc: usize,
    num_cc: usize,
}

fn run_backend<G: GraphView>(g: &G, reps: usize, opts: BccOpts) -> Row {
    let mut engine = BccEngine::new(opts);
    let (_, cold) = time_median(1, || {
        engine.solve_view(g);
    });
    let cold_fresh = engine.result().fresh_alloc_bytes;
    let (_, warm) = time_median(reps, || {
        engine.solve_view(g);
    });
    let r = engine.result();
    Row {
        backend: g.backend_name(),
        graph_bytes: g.bytes(),
        graph_capacity_bytes: g.capacity_bytes(),
        cold_secs: cold.as_secs_f64(),
        warm_secs: warm.as_secs_f64(),
        cold_fresh,
        warm_fresh: r.fresh_alloc_bytes,
        aux_peak: r.aux_peak_bytes,
        num_bcc: r.num_bcc,
        num_cc: r.num_cc,
    }
}

fn main() {
    let args = Args::parse();
    let scale = args.get_usize("--scale", 16) as u32;
    let edges = args.get_usize("--edges", 12_000_000);
    let reps = args.get_usize("--reps", 3);
    let seed = args.get_usize("--seed", 42) as u64;
    let opts = BccOpts::default();

    eprintln!("building rmat(scale={scale}, edges={edges}, seed={seed})...");
    let g = rmat(scale, edges, seed);
    let (n, m) = (g.n(), g.m_undirected());
    eprintln!(
        "built: n={n} m={m} ({:.1} MB flat)",
        GraphView::bytes(&g) as f64 / 1e6
    );

    let cg = CompressedGraph::from_graph(&g);
    let dir = std::env::temp_dir().join(format!("fastbcc-graph-backend-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let flat_path = dir.join("g.flat.fbcc");
    let comp_path = dir.join("g.comp.fbcc");
    save_snapshot(&g, &flat_path).expect("save flat snapshot");
    save_snapshot_compressed(&cg, &comp_path).expect("save compressed snapshot");
    let mflat = load_snapshot(&flat_path).expect("load flat snapshot");
    let mcomp = load_snapshot(&comp_path).expect("load compressed snapshot");

    let rows = [
        run_backend(&g, reps, opts),
        run_backend(&cg, reps, opts),
        run_backend(&mflat, reps, opts),
        run_backend(&mcomp, reps, opts),
    ];
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "{:<16} {:>12} {:>8} | {:>9} {:>9} | {:>10} {:>10} | {:>8}",
        "backend", "bytes", "B/edge", "cold(s)", "warm(s)", "coldfresh", "warmfresh", "num_bcc"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12} {:>8.2} | {:>9.3} {:>9.3} | {:>10} {:>10} | {:>8}",
            r.backend,
            r.graph_bytes,
            r.graph_bytes as f64 / m.max(1) as f64,
            r.cold_secs,
            r.warm_secs,
            r.cold_fresh,
            r.warm_fresh,
            r.num_bcc,
        );
    }

    // The acceptance gates, enforced here so a regression fails the run
    // loudly rather than producing a quietly wrong artifact.
    for r in &rows {
        assert_eq!(
            (r.num_bcc, r.num_cc),
            (rows[0].num_bcc, rows[0].num_cc),
            "backend {} disagrees with flat",
            r.backend
        );
        assert_eq!(
            r.warm_fresh, 0,
            "backend {}: warm solve allocated fresh bytes",
            r.backend
        );
    }
    for r in &rows {
        if r.backend.starts_with("compressed") {
            assert!(
                r.graph_bytes < rows[0].graph_bytes,
                "compressed backend {} not below flat ({} vs {})",
                r.backend,
                r.graph_bytes,
                rows[0].graph_bytes
            );
        }
    }

    let threads = fastbcc_primitives::num_threads();
    let records: Vec<Record> = rows
        .iter()
        .flat_map(|r| {
            let rec = |algo: &str, secs: f64, fresh: usize| {
                Record::new(&format!("rmat{scale}"), algo, n, threads)
                    .int("m", m)
                    .num("median_secs", secs)
                    .int("aux_peak_bytes", r.aux_peak)
                    .int("fresh_alloc_bytes", fresh)
                    .int("arena_bytes", 0)
                    .int("scratch_bytes", 0)
                    .int("scratch_budget_bytes", 0)
                    .pool_counters()
                    .str("backend", r.backend)
                    .int("graph_bytes", r.graph_bytes)
                    .int("graph_capacity_bytes", r.graph_capacity_bytes)
            };
            [
                rec("fast_bcc/cold", r.cold_secs, r.cold_fresh),
                rec("fast_bcc/warm", r.warm_secs, r.warm_fresh),
            ]
        })
        .collect();
    write_json_lines(args.get("--json"), &records);
}
