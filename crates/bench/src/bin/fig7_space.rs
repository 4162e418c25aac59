//! **Figure 7**: auxiliary-space comparison — FAST-BCC vs the GBBS-style
//! baseline vs Tarjan–Vishkin, normalized per graph (lower is better) —
//! plus the graph-representation space of each [`fastbcc_graph::GraphView`]
//! backend (flat CSR vs compressed blocks), reported as bytes per
//! undirected edge.
//!
//! ```text
//! cargo run --release -p fastbcc-bench --bin fig7_space -- \
//!     [--scale 0.1] [--graphs ...] [--json out.jsonl]
//! ```
//!
//! `--json` writes one record per (graph, algorithm, backend) with the
//! `aux_peak_bytes` space metric, the graph's own `graph_bytes` /
//! `graph_capacity_bytes` (length vs reserved capacity), and for FAST-BCC
//! a pooled `BccEngine`'s warm-solve `fresh_alloc_bytes` (0 = full buffer
//! reuse) — on **both** the flat and the compressed backend, so the CI
//! smoke gate can assert the compression ratio and the warm-solve
//! zero-allocation discipline from one artifact.
//!
//! Expected shape: TV's explicit `O(m)` skeleton blows up with the
//! edge-to-vertex ratio (up to ~11× in the paper, OOM on the largest
//! graphs); FAST-BCC and the BFS baseline stay `O(n)`, with the baseline
//! slightly leaner ("GBBS … about 20% more space-efficient … they compute
//! fewer tags").

use fastbcc_baselines::{bfs_bcc, tarjan_vishkin};
use fastbcc_bench::measure::{write_json_lines, Args, Record};
use fastbcc_bench::suite::filter_suite;
use fastbcc_core::{BccEngine, BccOpts};
use fastbcc_graph::{CompressedGraph, GraphView};

fn main() {
    let args = Args::parse();
    let scale = args.get_f64("--scale", 0.1);
    let mut records: Vec<Record> = Vec::new();

    println!(
        "{:<8} {:>10} {:>6} | {:>12} {:>12} {:>12} | {:>7} {:>7} {:>7} | {:>9} {:>9} | {:>7} {:>7}",
        "graph",
        "n",
        "m/n",
        "ours(B)",
        "gbbs*(B)",
        "TV(B)",
        "ours",
        "gbbs*",
        "TV",
        "warm(B)",
        "warmC(B)",
        "flatB/e",
        "cmprB/e"
    );
    println!(
        "{:>66} (normalized to smallest; warm = engine re-solve fresh bytes)",
        ""
    );
    for spec in filter_suite(args.get("--graphs")) {
        let g = spec.build(scale);
        let cg = CompressedGraph::from_graph(&g);
        // Cold solve sizes the engine workspace; the warm re-solve measures
        // what a pooled repeated-query server actually allocates. One
        // engine per backend: the edgeMap loops monomorphize per view
        // type, and each engine's warm solve must be allocation-free.
        let mut engine = BccEngine::new(BccOpts::default());
        let cold = engine.solve(&g);
        let (ours, cold_fresh, arena) = (
            cold.aux_peak_bytes,
            cold.fresh_alloc_bytes,
            cold.arena_bytes,
        );
        let warm_fresh = engine.solve(&g).fresh_alloc_bytes;
        let mut cengine = BccEngine::new(BccOpts::default());
        let ccold = cengine.solve_view(&cg);
        let (cours, ccold_fresh, carena) = (
            ccold.aux_peak_bytes,
            ccold.fresh_alloc_bytes,
            ccold.arena_bytes,
        );
        let cwarm_fresh = cengine.solve_view(&cg).fresh_alloc_bytes;
        let gbbs = bfs_bcc(&g, 7).aux_peak_bytes;
        let tv = tarjan_vishkin(&g, 5).aux_peak_bytes;
        let min = ours.min(gbbs).min(tv).max(1);
        let edges = g.m_undirected().max(1);
        println!(
            "{:<8} {:>10} {:>6.1} | {:>12} {:>12} {:>12} | {:>7.2} {:>7.2} {:>7.2} | {:>9} {:>9} | {:>7.2} {:>7.2}",
            spec.name,
            g.n(),
            g.m() as f64 / g.n().max(1) as f64,
            ours,
            gbbs,
            tv,
            ours as f64 / min as f64,
            gbbs as f64 / min as f64,
            tv as f64 / min as f64,
            warm_fresh,
            cwarm_fresh,
            GraphView::bytes(&g) as f64 / edges as f64,
            cg.bytes() as f64 / edges as f64,
        );
        let scratch = engine.workspace().heap_bytes();
        let cscratch = cengine.workspace().heap_bytes();
        let (n, m) = (g.n(), g.m_undirected());
        let threads = fastbcc_primitives::num_threads();
        let rec = |algo: &str,
                   backend: &str,
                   (gbytes, gcap): (usize, usize),
                   (peak, fresh, arena): (usize, usize, usize),
                   scratch: usize| {
            let budget = if scratch > 0 {
                fastbcc_core::space::workspace_budget_bytes(n, m)
            } else {
                0
            };
            Record::new(spec.name, algo, n, threads)
                .int("m", m)
                .num("median_secs", 0.0)
                .int("aux_peak_bytes", peak)
                .int("fresh_alloc_bytes", fresh)
                .int("arena_bytes", arena)
                .int("scratch_bytes", scratch)
                .int("scratch_budget_bytes", budget)
                .pool_counters()
                .str("backend", backend)
                .int("graph_bytes", gbytes)
                .int("graph_capacity_bytes", gcap)
        };
        let flat = (GraphView::bytes(&g), GraphView::capacity_bytes(&g));
        let comp = (cg.bytes(), cg.capacity_bytes());
        // `scratch_bytes` is a warm-record column (matching table2's
        // convention): it reports what a pooled repeated-query engine
        // holds reserved, which only stabilizes after the cold solve.
        records.extend([
            rec("fast_bcc/cold", "flat", flat, (ours, cold_fresh, arena), 0),
            rec(
                "fast_bcc/warm",
                "flat",
                flat,
                (ours, warm_fresh, arena),
                scratch,
            ),
            rec(
                "fast_bcc/cold",
                "compressed",
                comp,
                (cours, ccold_fresh, carena),
                0,
            ),
            rec(
                "fast_bcc/warm",
                "compressed",
                comp,
                (cours, cwarm_fresh, carena),
                cscratch,
            ),
            rec("bfs_bcc", "flat", flat, (gbbs, gbbs, 0), 0),
            rec("tarjan_vishkin", "flat", flat, (tv, tv, 0), 0),
        ]);
    }

    write_json_lines(args.get("--json"), &records);
}
