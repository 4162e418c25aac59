//! Shared measurement loop for the Tab. 2 / Fig. 1 experiments: build each
//! suite graph, run SEQ / FAST-BCC / GBBS-style / SM'14-style in both
//! parallel and single-thread configurations, cross-check the BCC counts,
//! and collect a row of results.

use crate::measure::{time_median, Args, Record};
use crate::suite::{filter_suite, Category, GraphSpec};
use fastbcc_baselines::{bfs_bcc, hopcroft_tarjan, sm14};
use fastbcc_core::{fast_bcc, largest_bcc_size, BccEngine, BccOpts};
use fastbcc_graph::stats::approx_diameter;
use fastbcc_graph::Graph;
use fastbcc_primitives::with_threads;
use std::time::Duration;

/// Measurements for one graph.
pub struct RowResult {
    pub name: &'static str,
    pub category: Category,
    pub n: usize,
    pub m: usize,
    pub diameter: u32,
    pub num_bcc: usize,
    pub largest_pct: f64,
    /// Sequential Hopcroft–Tarjan.
    pub seq: Duration,
    pub ours_par: Duration,
    pub ours_seq: Duration,
    pub gbbs_par: Duration,
    pub gbbs_seq: Duration,
    /// `None` = unsupported (disconnected input), as in Tab. 2.
    pub sm14_par: Option<Duration>,
    /// FAST-BCC peak auxiliary bytes (Fig. 7 metric).
    pub ours_aux_peak_bytes: usize,
    /// FAST-BCC freshly allocated bytes in the measured parallel run (0
    /// once a pooled workspace is warm; one-shot runs pay everything).
    pub ours_fresh_bytes: usize,
    /// Same, for the single-thread configuration.
    pub ours_seq_fresh_bytes: usize,
    /// Warm pooled-engine re-solve time (parallel configuration).
    pub ours_warm: Duration,
    /// Fresh bytes of that warm re-solve — the zero-allocation acceptance
    /// gate: a warm `BccEngine` must report 0 here even at full
    /// parallelism (the per-worker arenas are pre-sized deterministically).
    pub ours_warm_fresh_bytes: usize,
    /// Bytes held in the engine's frontier-staging buffers (edgeMap
    /// claim slots + dense bitmaps + local-search stacks).
    pub ours_arena_bytes: usize,
    /// Total reserved bytes of the warm engine's pooled workspace — the
    /// `c · (n + m)` space-regression gate in CI reads this.
    pub ours_scratch_bytes: usize,
    /// GBBS-style baseline peak auxiliary bytes.
    pub gbbs_aux_peak_bytes: usize,
    /// GBBS-style baseline fresh bytes (it pools nothing, so this equals
    /// its peak).
    pub gbbs_fresh_bytes: usize,
}

impl RowResult {
    /// Speedup of a configuration over SEQ (the Fig. 1 cell value).
    pub fn speedup_over_seq(&self, d: Duration) -> f64 {
        self.seq.as_secs_f64() / d.as_secs_f64().max(1e-9)
    }

    /// Best baseline parallel time (for the `T_best/ours` column).
    pub fn best_baseline(&self) -> Duration {
        let mut best = self.seq.min(self.gbbs_par);
        if let Some(s) = self.sm14_par {
            best = best.min(s);
        }
        best
    }

    /// Flatten into per-(graph, algo) JSON records, carrying the space
    /// counters where the algorithm reports them. `threads` is the worker
    /// budget of the parallel configurations; with the persistent pool it
    /// is enforced, not merely requested (see `with_threads`). Only the
    /// warm record reports the pooled workspace (`scratch_bytes`) and the
    /// linear budget it must fit (`scratch_budget_bytes`); the graph
    /// columns are fig7's and stay empty here.
    pub fn records(&self, threads: usize) -> Vec<Record> {
        let rec = |algo: &str, t: Duration, thr: usize, peak: usize, fresh: usize, arena: usize| {
            let (scratch, budget) = if algo == "fast_bcc/warm" {
                let budget = fastbcc_core::space::workspace_budget_bytes(self.n, self.m);
                (self.ours_scratch_bytes, budget)
            } else {
                (0, 0)
            };
            Record::new(self.name, algo, self.n, thr)
                .int("m", self.m)
                .num("median_secs", t.as_secs_f64())
                .int("aux_peak_bytes", peak)
                .int("fresh_alloc_bytes", fresh)
                .int("arena_bytes", arena)
                .int("scratch_bytes", scratch)
                .int("scratch_budget_bytes", budget)
                .pool_counters()
                .str("backend", "")
                .int("graph_bytes", 0)
                .int("graph_capacity_bytes", 0)
        };
        let (ours_peak, ours_arena) = (self.ours_aux_peak_bytes, self.ours_arena_bytes);
        let (gbbs_peak, gbbs_fresh) = (self.gbbs_aux_peak_bytes, self.gbbs_fresh_bytes);
        let mut out = vec![
            rec("hopcroft_tarjan/seq", self.seq, 1, 0, 0, 0),
            rec(
                "fast_bcc/par",
                self.ours_par,
                threads,
                ours_peak,
                self.ours_fresh_bytes,
                ours_arena,
            ),
            rec(
                "fast_bcc/seq",
                self.ours_seq,
                1,
                ours_peak,
                self.ours_seq_fresh_bytes,
                ours_arena,
            ),
            rec(
                "fast_bcc/warm",
                self.ours_warm,
                threads,
                ours_peak,
                self.ours_warm_fresh_bytes,
                ours_arena,
            ),
            rec(
                "bfs_bcc/par",
                self.gbbs_par,
                threads,
                gbbs_peak,
                gbbs_fresh,
                0,
            ),
            rec("bfs_bcc/seq", self.gbbs_seq, 1, gbbs_peak, gbbs_fresh, 0),
        ];
        if let Some(t) = self.sm14_par {
            out.push(rec("sm14/par", t, threads, 0, 0, 0));
        }
        out
    }
}

/// Harness options: the shared `--scale`, `--reps`, `--threads` and
/// `--graphs` surface of the suite bins (`--threads 0` = the runtime
/// default, honoring `FASTBCC_THREADS`).
pub struct RunOpts {
    pub scale: f64,
    pub reps: usize,
    pub threads: usize,
    pub names: Option<String>,
}

impl RunOpts {
    pub fn from_args(args: &Args) -> Self {
        Self {
            scale: args.get_f64("--scale", 0.1),
            reps: args.get_usize("--reps", 3),
            threads: args.get_usize("--threads", 0),
            names: args.get("--graphs").map(String::from),
        }
    }

    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            // The runtime's default budget (honors `FASTBCC_THREADS`).
            fastbcc_primitives::num_threads()
        } else {
            self.threads
        }
    }
}

/// Measure one graph with every algorithm.
pub fn run_one(spec: &GraphSpec, g: &Graph, opts: &RunOpts) -> RowResult {
    let p = opts.effective_threads();
    let reps = opts.reps;

    // Ground truth + table stats.
    let (ht, seq) = time_median(reps, || hopcroft_tarjan(g, false));
    let diameter = approx_diameter(g, 2);

    // Region entry stays OUTSIDE the timed regions, and the persistent
    // pool is warmed by the first repetition (the paper measures algorithm
    // time on a warm pool, not thread spawn latency).
    let (ours, ours_par) =
        with_threads(p, || time_median(reps, || fast_bcc(g, BccOpts::default())));
    let (ours_seq_r, ours_seq) =
        with_threads(1, || time_median(reps, || fast_bcc(g, BccOpts::default())));

    // Warm pooled engine at full parallelism: the cold solve sizes the
    // workspace (per-worker arenas included); every timed re-solve must
    // then report zero fresh bytes — the bench-smoke CI job fails the
    // build if any warm record says otherwise.
    let ((ours_warm_fresh_bytes, ours_arena_bytes, ours_scratch_bytes), ours_warm) =
        with_threads(p, || {
            let mut engine = BccEngine::new(BccOpts::default());
            engine.solve(g);
            let ((fresh, arena), t) = time_median(reps, || {
                let r = engine.solve(g);
                (r.fresh_alloc_bytes, r.arena_bytes)
            });
            ((fresh, arena, engine.workspace().heap_bytes()), t)
        });

    let (gbbs, gbbs_par) = with_threads(p, || time_median(reps, || bfs_bcc(g, 7)));
    let (_, gbbs_seq) = with_threads(1, || time_median(reps, || bfs_bcc(g, 7)));

    let sm14_par = match with_threads(p, || sm14(g)) {
        Ok(_) => {
            let (r, t) = with_threads(p, || time_median(reps, || sm14(g).unwrap()));
            assert_eq!(
                r.num_bcc, ht.num_bcc,
                "{}: SM14 BCC count mismatch",
                spec.name
            );
            Some(t)
        }
        Err(_) => None,
    };

    // Cross-check every algorithm against SEQ.
    assert_eq!(
        ours.num_bcc, ht.num_bcc,
        "{}: FAST-BCC count mismatch",
        spec.name
    );
    assert_eq!(
        gbbs.num_bcc, ht.num_bcc,
        "{}: BFS-BCC count mismatch",
        spec.name
    );

    let largest = largest_bcc_size(&ours);
    RowResult {
        name: spec.name,
        category: spec.category,
        n: g.n(),
        m: g.m_undirected(),
        diameter,
        num_bcc: ht.num_bcc,
        largest_pct: 100.0 * largest as f64 / g.n().max(1) as f64,
        seq,
        ours_par,
        ours_seq,
        gbbs_par,
        gbbs_seq,
        sm14_par,
        ours_aux_peak_bytes: ours.aux_peak_bytes,
        ours_fresh_bytes: ours.fresh_alloc_bytes,
        ours_seq_fresh_bytes: ours_seq_r.fresh_alloc_bytes,
        ours_warm,
        ours_warm_fresh_bytes,
        ours_arena_bytes,
        ours_scratch_bytes,
        gbbs_aux_peak_bytes: gbbs.aux_peak_bytes,
        gbbs_fresh_bytes: gbbs.fresh_alloc_bytes,
    }
}

/// Run the whole (filtered) suite.
pub fn run_suite(opts: &RunOpts) -> Vec<RowResult> {
    let specs = filter_suite(opts.names.as_deref());
    let mut rows = Vec::new();
    for spec in &specs {
        eprintln!("[build] {} (scale {})", spec.name, opts.scale);
        let g = spec.build(opts.scale);
        eprintln!("[run  ] {}: n={} m={}", spec.name, g.n(), g.m_undirected());
        rows.push(run_one(spec, &g, opts));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::small_suite;

    #[test]
    fn runner_smoke_on_tiny_scale() {
        let opts = RunOpts {
            scale: 0.005,
            reps: 1,
            threads: 2,
            names: None,
        };
        for spec in small_suite().iter().take(2) {
            let g = spec.build(opts.scale);
            let row = run_one(spec, &g, &opts);
            assert!(row.seq > Duration::ZERO);
            assert!(row.num_bcc > 0);
            let recs: Vec<String> = row
                .records(opts.threads)
                .iter()
                .map(Record::to_json)
                .collect();
            assert!(recs
                .iter()
                .any(|r| r.contains("\"algo\":\"fast_bcc/par\"") && r.contains("\"threads\":2,")));
            // The warm-engine acceptance gates, in miniature: a warm
            // pooled solve allocates nothing even under a parallel
            // schedule, and its reserved workspace fits the linear
            // `c · (n + m)` budget (no hidden `O(n · P)` staging).
            let warm = recs
                .iter()
                .find(|r| r.contains("\"algo\":\"fast_bcc/warm\""))
                .expect("warm record missing");
            assert_eq!(
                row.ours_warm_fresh_bytes, 0,
                "warm engine re-solve allocated fresh bytes"
            );
            assert!(warm.contains("\"fresh_alloc_bytes\":0,"), "{warm}");
            let budget = fastbcc_core::space::workspace_budget_bytes(row.n, row.m);
            assert!(
                row.ours_scratch_bytes > 0 && row.ours_scratch_bytes <= budget,
                "warm workspace {} bytes outside (0, {}] for n={} m={}",
                row.ours_scratch_bytes,
                budget,
                row.n,
                row.m
            );
            let scratch = format!("\"scratch_bytes\":{},", row.ours_scratch_bytes);
            assert!(warm.contains(&scratch), "{warm}");
            let budget = format!("\"scratch_budget_bytes\":{budget},");
            assert!(warm.contains(&budget), "{warm}");
        }
    }
}
