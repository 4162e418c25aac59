//! One run of one workload: generate the inputs, then measure
//!
//! 1. set-up from the snapshot file (load → decode → `start` → first answer),
//! 2. quiescent reads,
//! 3. warm re-solves of the backend view,
//! 4. a closed-loop stream of deltas through `fastbcc-serve` while one
//!    reader thread keeps querying,
//!
//! checking every output against the Hopcroft–Tarjan oracle outside the
//! timed regions. At most `nproc` threads are busy at any time: the static
//! phases run alone at the workload's budget; during the stream the reader
//! and the rebuilder each run at budget 1, and the submitting thread sleeps
//! while it waits for the new version to become visible.

use crate::metrics::Report;
use crate::oracle::{self, Expected};
use crate::stats::{median, tail};
use crate::sys::{self, CpuTimes};
use crate::trace::Tracer;
use crate::workload::{Backend, Workload, BATCH, DELTA_EDGES, ROUNDS};
use fastbcc_bench::churn::{churn_batch, live_edges, ChurnRng};
use fastbcc_core::{canonical_bccs, random_mixed_batch, BccEngine, BccOpts, BccResult, Query};
use fastbcc_core::{QueryAnswer, QueryScratch, FALLBACK_REASONS};
use fastbcc_graph::{apply_delta, load_snapshot, save_snapshot, save_snapshot_compressed};
use fastbcc_graph::{CompressedGraph, DeltaScratch, Graph, GraphDelta, GraphView, MappedGraph};
use fastbcc_primitives::{max_workers, pool_spawns, steal_count, with_threads};
use fastbcc_serve::{start, RebuildReport, Rebuilder, ServeOpts, ServiceHandle, ServiceReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Distinct 4096-query batches the readers cycle through.
const READER_BATCHES: usize = 16;
/// A published version not adopted by the reader within this long counts
/// as a failed delta.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(30);
/// Upper bound on the stream-phase reader batches whose times are kept.
const READ_LOG_CAP: usize = 1 << 20;
/// Percentile of each round's stream batches whose median over the rounds
/// is the read tail. On a 2-vCPU shared host p99 sits where millisecond
/// stalls of the reader begin (p99.9 is ~10x the median), so it moved by
/// 28% over ten runs of identical code; p95 stays below the stalls. Some
/// rounds run 10-20% of their batches ~40% slower than the rest (the
/// reader stays on one CPU; the cause is outside the process), so a p95
/// pooled over all rounds jumped with the number of such rounds; the
/// median over rounds does not.
const READ_TAIL_PCT: f64 = 95.0;
/// Percentile reported as the freshness tail: p75, which leaves ten
/// samples beyond it at 40 deltas and thirty at 120. On a 120-delta stream
/// the percentile with only ten beyond (p91.7) picked up a few slow
/// deltas in one run and read 127 ms against a 74 ms median.
const FRESH_TAIL_PCT: f64 = 75.0;
/// The four phase spans must cover each bench-timed `solve_view` up to
/// this share of it, or up to [`PHASE_COVERAGE_SLACK`] (tiny inputs).
pub const PHASE_COVERAGE_TOLERANCE: f64 = 0.05;
pub const PHASE_COVERAGE_SLACK: Duration = Duration::from_millis(1);

/// Everything a run produced.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    pub tracer: Tracer,
}

/// Inputs generated before any timing; the program sees only the snapshot
/// file and the delta list.
struct Inputs {
    snapshot: PathBuf,
    deltas: Vec<GraphDelta>,
    batches: Vec<Vec<Query>>,
    probe: Vec<Query>,
    initial: Expected,
    last: Expected,
}

/// What one delta of the stream did; times in ns since the stream began.
struct DeltaRec {
    submit: u64,
    rebuild: (u64, u64),
    /// Start of the reader's first batch at the new version (0: never).
    adopt: u64,
    visible: bool,
    report: RebuildReport,
}

/// Running tally of checked operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `n` operations, `bad` of which failed.
    fn tally(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{bad} of {n} {what}"));
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn generate(w: &Workload, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    let g0 = w.family.generate(seed);
    let n = g0.n();
    let probe = random_mixed_batch(n, BATCH, seed ^ 0x9B0B_E5EED);
    let initial = oracle::expected(&g0, &probe);

    let snapshot = dir.join(format!("{}-{seed}.snap", w.name));
    match w.backend {
        Backend::Flat => save_snapshot(&g0, &snapshot)?,
        Backend::Compressed => {
            save_snapshot_compressed(&CompressedGraph::from_graph(&g0), &snapshot)?
        }
    }

    let mut rng = ChurnRng::new(seed ^ 0xDE17A);
    let mut live = live_edges(&g0);
    let frac = DELTA_EDGES as f64 / live.len().max(1) as f64;
    let mut scratch = DeltaScratch::new();
    let mut cur = g0;
    let mut deltas = Vec::with_capacity(w.deltas());
    for _ in 0..w.deltas() {
        let d = churn_batch(&cur, &mut live, frac, &mut rng);
        let next = apply_delta(&cur, &d, &mut scratch);
        scratch.recycle(std::mem::replace(&mut cur, next));
        deltas.push(d);
    }
    let last = oracle::expected(&cur, &probe);
    let batches = (0..READER_BATCHES as u64)
        .map(|i| random_mixed_batch(n, BATCH, seed.wrapping_mul(31).wrapping_add(i)))
        .collect();
    Ok(Inputs {
        snapshot,
        deltas,
        batches,
        probe,
        initial,
        last,
    })
}

fn decode(mg: &MappedGraph) -> Graph {
    match mg {
        MappedGraph::Flat(g) => g.to_graph(),
        MappedGraph::Compressed(g) => g.to_compressed().decompress(),
    }
}

/// `solve_view`, monomorphized per backend.
fn solve_mapped<'e>(engine: &'e mut BccEngine, mg: &MappedGraph) -> &'e BccResult {
    match mg {
        MappedGraph::Flat(g) => engine.solve_view(g),
        MappedGraph::Compressed(g) => engine.solve_view(g),
    }
}

fn mismatches(got: &[QueryAnswer], want: &[QueryAnswer]) -> usize {
    got.iter().zip(want).filter(|(a, b)| a != b).count() + got.len().abs_diff(want.len())
}

/// Check a served version against the oracle: its block count, and the
/// answers to the fixed probe batch.
fn check_served(
    c: &mut Checks,
    reader: &mut ServiceReader,
    probe: &[Query],
    want: &Expected,
    what: &str,
) {
    let blocks = reader.snapshot().index.num_blocks();
    c.check(blocks == want.num_bcc, || {
        format!("{what}: index has {blocks} blocks, oracle {}", want.num_bcc)
    });
    let got = with_threads(1, || reader.answer_batch(probe).answers.to_vec());
    let bad = mismatches(&got, &want.probe_answers);
    c.check(bad == 0, || {
        format!("{what}: {bad} probe answers differ from the oracle")
    });
}

/// Check a solve against the oracle: BCC count and canonical BCCs.
fn check_solve(c: &mut Checks, res: &BccResult, want: &Expected, what: &str) {
    c.check(res.num_bcc == want.num_bcc, || {
        format!("{what}: {} BCCs, oracle {}", res.num_bcc, want.num_bcc)
    });
    let fp = oracle::fingerprint(&canonical_bccs(res));
    c.check(fp == want.bcc_fingerprint, || {
        format!("{what}: canonical BCCs differ from the oracle")
    });
}

/// Run `w` at `seed`, spending `read_secs` on quiescent reads, and write
/// scratch files under `dir`.
pub fn run(
    w: &Workload,
    seed: u64,
    read_secs: f64,
    trace: bool,
    dir: &Path,
) -> std::io::Result<Outcome> {
    let nproc = sys::nproc();
    let budget = w.static_budget();
    let t0 = Instant::now();
    let inputs = with_threads(nproc, || generate(w, seed, dir))?;
    let t1 = Instant::now();
    let result = measure(budget, &inputs, read_secs, trace);
    let _ = std::fs::remove_file(&inputs.snapshot);
    let (mut report, checks, tracer) = result?;
    report.setting("generate_s", format!("{:.2}", secs(t1 - t0)));
    report.setting("measure_s", format!("{:.2}", secs(t1.elapsed())));
    report.setting("workload", w.name);
    report.setting("seed", seed);
    report.setting("nproc", nproc);
    report.setting("static_budget", budget);
    report.setting("reader_budget", 1);
    report.setting("rebuilder_budget", 1);
    report.setting("pool_max_workers", max_workers());
    report.setting("pool_workers_spawned", pool_spawns());
    report.setting("closed_loop_clients", "1 reader thread, 1 delta submitter");
    report.setting(
        "graph",
        format!(
            "n={} m={} bccs={}",
            inputs.initial.n, inputs.initial.m, inputs.initial.num_bcc
        ),
    );
    report.setting("rounds", ROUNDS);
    report.setting(
        "deltas",
        format!("{} x ({DELTA_EDGES} del + {DELTA_EDGES} ins)", w.deltas()),
    );
    report.setting("read_batch_queries", BATCH);
    let failed = checks.failed;
    let attempted = checks.attempted.max(1);
    report.set(
        "run.error_rate",
        failed as f64 / attempted as f64,
        attempted as usize,
        "failed / attempted operations",
    );
    Ok(Outcome {
        report,
        attempted,
        failed,
        failures: checks.failures,
        tracer,
    })
}

/// Raw samples of the static phases, pooled over all rounds.
#[derive(Default)]
struct StaticSamples {
    setup: Vec<f64>,
    load: Vec<f64>,
    decode: Vec<f64>,
    start: Vec<f64>,
    first: Vec<f64>,
    solve: Vec<f64>,
    /// First-CC, rooting, tagging, Last-CC, and the rest of `solve_view`.
    phases: [Vec<f64>; 5],
    fresh_alloc_max: usize,
    /// Quiescent read chunks: queries and seconds.
    reads: Vec<(usize, f64)>,
    leaked: u64,
}

/// State shared between the submitting thread and the stream reader.
struct Shared {
    base: Instant,
    /// Per version: ns from `base` to the start of the reader's first
    /// batch at that version (0: not seen yet).
    adopted: Vec<AtomicU64>,
    seen: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }
}

/// The stream reader's own record, kept across rounds.
struct ReaderLog {
    /// `(start, end)` of every stream batch, ns from `Shared::base`.
    batches: Vec<(u64, u64)>,
    backwards: u64,
    fresh_alloc_max: usize,
    last_version: u64,
    next: usize,
}

/// Back-to-back batches until `shared.stop`, noting when each new version
/// is first served and waking the submitter.
fn stream_reader(
    reader: &mut ServiceReader,
    log: &mut ReaderLog,
    shared: &Shared,
    batches: &[Vec<Query>],
    submitter: &thread::Thread,
) {
    while !shared.stop.load(Ordering::Acquire) {
        let s0 = Instant::now();
        let v = reader
            .answer_batch(&batches[log.next % batches.len()])
            .version;
        let s1 = Instant::now();
        if v < log.last_version {
            log.backwards += 1;
        } else if v > log.last_version {
            if let Some(slot) = shared.adopted.get(v as usize) {
                slot.store(shared.ns(s0).max(1), Ordering::Relaxed);
            }
            log.last_version = v;
            shared.seen.store(v, Ordering::Release);
            submitter.unpark();
        }
        log.fresh_alloc_max = log.fresh_alloc_max.max(reader.fresh_alloc_bytes());
        if log.batches.len() < READ_LOG_CAP {
            log.batches.push((shared.ns(s0), shared.ns(s1)));
        }
        log.next += 1;
    }
}

/// Submit `deltas` one at a time (closed loop): submit, rebuild, then sleep
/// until the reader has served the new version.
fn submit_deltas(
    deltas: &[(usize, &GraphDelta)],
    handle: &ServiceHandle,
    rebuilder: &mut Rebuilder,
    shared: &Shared,
    recs: &mut Vec<Option<DeltaRec>>,
    backlog_max: &mut u64,
    t: &mut Tracer,
) {
    for &(i, delta) in deltas {
        let version = i as u64 + 2;
        let delta = delta.clone();
        let t0 = Instant::now();
        if handle.submit_delta(delta).is_err() {
            recs.push(None);
            continue;
        }
        let t1 = Instant::now();
        let Some(rep) = rebuilder.rebuild_pending() else {
            recs.push(None);
            continue;
        };
        let t2 = Instant::now();
        *backlog_max = (*backlog_max).max(handle.stats_report().retire_backlog);
        let deadline = t0 + VISIBLE_DEADLINE;
        let mut visible = true;
        while shared.seen.load(Ordering::Acquire) < version {
            let now = Instant::now();
            if now >= deadline {
                visible = false;
                break;
            }
            thread::park_timeout(deadline - now);
        }
        let adopt = shared.adopted[version as usize].load(Ordering::Relaxed);
        recs.push(Some(DeltaRec {
            submit: shared.ns(t0),
            rebuild: (shared.ns(t2 - rep.total), shared.ns(t2)),
            adopt,
            visible: visible && adopt > 0,
            report: rep,
        }));
        if t.enabled() && adopt > 0 {
            let adopt = (shared.base + Duration::from_nanos(adopt)).max(t2);
            let req = i as u64;
            let p = t.span("serve.fresh", t0, adopt, None, req);
            t.span("serve.submit_delta", t0, t1, p, req);
            let rb = t.span("serve.rebuild_pending", t1, t2, p, req);
            t.sequence(
                rb,
                t2 - rep.total,
                &[
                    ("dyn.apply_batch", rep.solve),
                    ("serve.index_publish", rep.total - rep.solve),
                ],
                req,
            );
            t.span("serve.adopt", t2, adopt, p, req);
        }
    }
}

/// The measured scenario. Each of [`ROUNDS`] rounds runs one cold set-up,
/// one warm solve, a quiescent read chunk, and an equal share of the
/// streamed deltas, so every metric's samples spread over the whole run
/// rather than one stretch of host conditions.
fn measure(
    budget: usize,
    inp: &Inputs,
    read_secs: f64,
    trace: bool,
) -> std::io::Result<(Report, Checks, Tracer)> {
    let mut r = Report::default();
    let mut c = Checks::default();
    let mut t = Tracer::new(trace);
    let opts = ServeOpts {
        max_readers: 4,
        batch_capacity: BATCH,
        bcc: BccOpts::default(),
    };
    // Peak RSS counts from here: the generator's memory is already freed.
    sys::trim_heap();
    sys::reset_peak_rss()?;
    let cpu0 = CpuTimes::now();
    let mut ss = StaticSamples::default();
    let d = inp.deltas.len();
    let per_round = d / ROUNDS;
    let shared = Shared {
        base: Instant::now(),
        adopted: (0..d + 2).map(|_| AtomicU64::new(0)).collect(),
        seen: AtomicU64::new(1),
        stop: AtomicBool::new(false),
    };
    let mut log = ReaderLog {
        batches: Vec::with_capacity(READ_LOG_CAP),
        backwards: 0,
        fresh_alloc_max: 0,
        last_version: 1,
        next: 0,
    };
    let mut recs: Vec<Option<DeltaRec>> = Vec::with_capacity(d);
    let mut backlog_max = 0u64;
    let mut kept = None;
    let mut engine = BccEngine::new(BccOpts::default());
    let mut spawns_warm = 0;
    let steals0 = steal_count();
    let submitter = thread::current();
    let measured = Instant::now();
    // Index into `log.batches` where each round's stream starts.
    let mut round_starts = Vec::with_capacity(ROUNDS + 1);

    for round in 0..ROUNDS {
        // ---- 1. cold set-up: snapshot file → first answered batch ---------
        let req = round as u64;
        let t0 = Instant::now();
        let mg = load_snapshot(&inp.snapshot)?;
        let t1 = Instant::now();
        let flat = decode(&mg);
        let t2 = Instant::now();
        let (handle, rebuilder) = with_threads(budget, || start(&flat, opts));
        let t3 = Instant::now();
        drop(flat);
        let mut reader = handle.reader();
        let version = with_threads(1, || reader.answer_batch(&inp.batches[0]).version);
        let t4 = Instant::now();
        c.check(version == 1, || {
            format!("set-up {round}: first batch at version {version}")
        });
        ss.setup.push(secs(t4 - t0));
        ss.load.push(secs(t1 - t0));
        ss.decode.push(secs(t2 - t1));
        ss.start.push(secs(t3 - t2));
        ss.first.push(secs(t4 - t3));
        let p = t.span("setup", t0, t4, None, req);
        t.span("graph.load_snapshot", t0, t1, p, req);
        t.span("graph.decode", t1, t2, p, req);
        t.span("serve.start", t2, t3, p, req);
        t.span("serve.first_batch", t3, t4, p, req);
        let what = format!("set-up {round}");
        check_served(&mut c, &mut reader, &inp.probe, &inp.initial, &what);
        if kept.is_none() {
            // The first set-up's service carries the rest of the run.
            // Warm the solve engine on the same view (untimed).
            with_threads(budget, || solve_mapped(&mut engine, &mg).num_bcc);
            kept = Some((mg, handle, rebuilder, reader));
            spawns_warm = pool_spawns();
        } else {
            let stats = handle.stats_handle();
            drop((reader, handle, rebuilder, mg));
            let s = stats.report();
            ss.leaked += s.snapshots_published - s.snapshots_dropped;
        }
        let (mg, handle, rebuilder, reader) = kept.as_mut().expect("set up in round 0");

        // ---- 2. a warm re-solve of the backend view ------------------------
        let t0 = Instant::now();
        let res = with_threads(budget, || solve_mapped(&mut engine, mg));
        let wall = t0.elapsed();
        let b = res.breakdown;
        ss.fresh_alloc_max = ss.fresh_alloc_max.max(res.fresh_alloc_bytes);
        ss.solve.push(secs(wall));
        for (k, part) in [b.first_cc, b.rooting, b.tagging, b.last_cc]
            .iter()
            .enumerate()
        {
            ss.phases[k].push(secs(*part));
        }
        let uncovered = wall.saturating_sub(b.total());
        ss.phases[4].push(secs(uncovered));
        let share = secs(uncovered) / secs(wall).max(1e-12);
        c.check(
            share <= PHASE_COVERAGE_TOLERANCE || uncovered <= PHASE_COVERAGE_SLACK,
            || {
                format!(
                    "solve {round}: phases leave {:.1}% of solve_view uncovered",
                    100.0 * share
                )
            },
        );
        check_solve(&mut c, res, &inp.initial, &format!("warm solve {round}"));
        let p = t.span("core.solve_view", t0, t0 + wall, None, req);
        let parts = [
            ("conn.first_cc", b.first_cc),
            ("ett.rooting", b.rooting),
            ("core.tagging", b.tagging),
            ("conn.last_cc", b.last_cc),
        ];
        t.sequence(p, t0, &parts, req);

        // ---- 3. quiescent reads -------------------------------------------
        let current = handle.current_version();
        let chunk = read_secs / ROUNDS as f64;
        let (queries, wall, wrong) = with_threads(1, || {
            let (mut queries, mut wrong, mut i) = (0usize, 0u64, 0usize);
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < chunk || i == 0 {
                let b = reader.answer_batch(&inp.batches[(round + i) % READER_BATCHES]);
                wrong += (b.version != current) as u64;
                queries += b.answers.len();
                i += 1;
            }
            let wall = t0.elapsed();
            t.span("reads.quiescent", t0, t0 + wall, None, req);
            (queries, wall, wrong)
        });
        c.tally(
            (queries / BATCH) as u64,
            wrong,
            "quiescent batches off the published version",
        );
        ss.reads.push((queries, secs(wall)));

        // ---- 4. deltas through the service, one reader querying -----------
        round_starts.push(log.batches.len());
        let first = round * per_round;
        let batch: Vec<(usize, &GraphDelta)> = (first..first + per_round)
            .map(|i| (i, &inp.deltas[i]))
            .collect();
        shared.stop.store(false, Ordering::Release);
        thread::scope(|s| {
            let log = &mut log;
            let shared = &shared;
            let submitter = &submitter;
            let reader_thread = s.spawn(move || {
                with_threads(1, || {
                    stream_reader(reader, log, shared, &inp.batches, submitter)
                })
            });
            with_threads(1, || {
                submit_deltas(
                    &batch,
                    handle,
                    rebuilder,
                    shared,
                    &mut recs,
                    &mut backlog_max,
                    &mut t,
                )
            });
            shared.stop.store(true, Ordering::Release);
            reader_thread.join().expect("stream reader thread");
        });
    }
    // Before the checks below, which allocate.
    let peak_rss = sys::peak_rss_bytes();
    let cpu1 = CpuTimes::now();
    let measured = measured.elapsed();
    let trace_cost = t.cost();
    let steals = steal_count() - steals0;
    let (mg, handle, rebuilder, mut reader) = kept.expect("at least one round");

    // ---- checks on the final served version --------------------------------
    check_served(&mut c, &mut reader, &inp.probe, &inp.last, "final version");
    {
        let snap = reader.snapshot();
        let want = d as u64 + 1;
        c.check(snap.version == want, || {
            format!("final version {} instead of {want}", snap.version)
        });
        c.check(snap.n == inp.last.n && snap.m == inp.last.m, || {
            format!(
                "final graph {}x{} instead of {}x{}",
                snap.n, snap.m, inp.last.n, inp.last.m
            )
        });
        if trace {
            let mut scratch = QueryScratch::with_capacity(BATCH);
            let mut times = vec![];
            for b in &inp.batches {
                let s = Instant::now();
                snap.index.answer_batch(b, &mut scratch);
                times.push(1e6 * secs(s.elapsed()));
            }
            r.set(
                "core.answer_us",
                median(&times),
                times.len(),
                "median BccIndex::answer_batch, 4096 queries",
            );
        }
    }
    let stats = handle.stats_handle();
    drop((reader, handle, rebuilder));
    let s = stats.report();
    ss.leaked += s.snapshots_published - s.snapshots_dropped;
    c.check(ss.leaked == 0, || {
        format!("{} snapshots never dropped", ss.leaked)
    });

    // ---- static-phase metrics ---------------------------------------------
    r.set(
        "setup_s",
        median(&ss.setup),
        ss.setup.len(),
        "median cold set-up: load+decode+start+first batch",
    );
    r.set(
        "graph.load_s",
        median(&ss.load),
        ss.load.len(),
        "median load_snapshot incl. validation",
    );
    r.set(
        "graph.decode_s",
        median(&ss.decode),
        ss.decode.len(),
        "median mapped -> flat Graph",
    );
    r.set(
        "serve.start_s",
        median(&ss.start),
        ss.start.len(),
        "median start: cold solve + build_index + publish",
    );
    r.set(
        "serve.first_answer_ms",
        1e3 * median(&ss.first),
        ss.first.len(),
        "median first 4096-query batch",
    );
    r.set(
        "graph.bytes_per_edge",
        mg.bytes() as f64 / mg.m_undirected().max(1) as f64,
        1,
        format!("{} backend, bytes / undirected edges", mg.backend_name()),
    );
    r.set(
        "solve_s",
        median(&ss.solve),
        ss.solve.len(),
        format!("median warm solve_view at budget {budget}"),
    );
    let names = [
        "conn.first_cc_s",
        "ett.rooting_s",
        "core.tagging_s",
        "conn.last_cc_s",
        "core.solve_self_s",
    ];
    for (k, name) in names.iter().enumerate() {
        r.set(
            name,
            median(&ss.phases[k]),
            ss.phases[k].len(),
            "median over warm solves",
        );
    }
    r.set(
        "rt.warm_fresh_alloc_bytes",
        ss.fresh_alloc_max as f64,
        ss.solve.len(),
        "max BccResult::fresh_alloc_bytes",
    );
    r.set(
        "rt.steals",
        steals as f64,
        ss.solve.len(),
        "steal_count delta over the measured phases",
    );
    r.set(
        "rt.pool_spawns",
        (pool_spawns() - spawns_warm) as f64,
        1,
        "pool spawns after the first set-up",
    );
    let mqps: Vec<f64> = ss.reads.iter().map(|&(q, s)| q as f64 / s / 1e6).collect();
    let total_q: usize = ss.reads.iter().map(|x| x.0).sum();
    r.set(
        "query_mqps",
        median(&mqps),
        mqps.len(),
        format!("median chunk throughput, {total_q} queries"),
    );

    // ---- stream metrics ---------------------------------------------------
    let done: Vec<&DeltaRec> = recs.iter().flatten().collect();
    let visible: Vec<&&DeltaRec> = done.iter().filter(|x| x.visible).collect();
    let fresh_ms: Vec<f64> = visible
        .iter()
        .map(|x| 1e-6 * (x.adopt - x.submit) as f64)
        .collect();
    let lag_ms: Vec<f64> = visible
        .iter()
        .map(|x| 1e-6 * (x.adopt - x.submit) as f64 - 1e3 * secs(x.report.total))
        .collect();
    c.tally(
        d as u64,
        (d - visible.len()) as u64,
        "deltas refused or not visible in time",
    );
    c.tally(
        log.batches.len() as u64,
        log.backwards,
        "reader batches whose version went backwards",
    );
    let lat_us: Vec<f64> = log
        .batches
        .iter()
        .map(|&(a, b)| 1e-3 * (b - a) as f64)
        .collect();
    round_starts.push(lat_us.len());
    let read_tails: Option<Vec<_>> = round_starts
        .windows(2)
        .map(|w| tail(&lat_us[w[0]..w[1]], READ_TAIL_PCT))
        .collect();
    let fresh_tail = tail(&fresh_ms, FRESH_TAIL_PCT);
    c.check(read_tails.is_some(), || {
        format!(
            "only {} stream batches: no read tail in some round",
            lat_us.len()
        )
    });
    c.check(fresh_tail.is_some(), || {
        format!("only {} visible deltas: no freshness tail", fresh_ms.len())
    });
    r.set(
        "read_p50_us",
        median(&lat_us),
        lat_us.len(),
        "median reader batch latency during the stream",
    );
    if let Some(tails) = read_tails {
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        let pct = tails.iter().map(|t| t.pct).fold(f64::INFINITY, f64::min);
        let beyond = tails.iter().map(|t| t.beyond).min().unwrap_or(0);
        r.set(
            "read_tail_us",
            median(&values),
            lat_us.len(),
            format!(
                "median over {} rounds of p{pct:.1}, >= {beyond} samples beyond each",
                tails.len()
            ),
        );
    }
    r.set(
        "fresh_p50_ms",
        median(&fresh_ms),
        fresh_ms.len(),
        "median submit_delta -> first batch at new version",
    );
    if let Some(tl) = fresh_tail {
        r.set(
            "fresh_tail_ms",
            tl.value,
            fresh_ms.len(),
            format!("p{:.1}, {} samples beyond", tl.pct, tl.beyond),
        );
    }
    let in_rebuild = log
        .batches
        .iter()
        .filter(|&&(a, b)| {
            let k = done.partition_point(|x| x.rebuild.1 < a);
            done.get(k).is_some_and(|x| x.rebuild.0 <= b)
        })
        .count();
    r.set(
        "serve.reads_in_rebuild_frac",
        in_rebuild as f64 / log.batches.len().max(1) as f64,
        log.batches.len(),
        "share of stream batches overlapping a rebuild",
    );
    let apply_s: Vec<f64> = done.iter().map(|x| secs(x.report.solve)).collect();
    let total_s: Vec<f64> = done.iter().map(|x| secs(x.report.total)).collect();
    let incremental = done.iter().filter(|x| x.report.incremental).count();
    let fallback_apply: Vec<f64> = done
        .iter()
        .filter(|x| x.report.fallback.is_some())
        .map(|x| secs(x.report.solve))
        .collect();
    r.set(
        "dyn.apply_s",
        median(&apply_s),
        apply_s.len(),
        "median RebuildReport::solve per delta",
    );
    r.set(
        "serve.rebuild_s",
        median(&total_s),
        total_s.len(),
        "median RebuildReport::total per delta",
    );
    r.set(
        "serve.visible_lag_ms",
        median(&lag_ms),
        lag_ms.len(),
        "median freshness minus rebuild",
    );
    r.set(
        "dyn.incremental_frac",
        incremental as f64 / d.max(1) as f64,
        d,
        "incremental deltas / deltas",
    );
    for reason in FALLBACK_REASONS {
        let count = done
            .iter()
            .filter(|x| x.report.fallback == Some(reason))
            .count();
        r.set(
            &format!("dyn.fallback.{reason}"),
            count as f64,
            d,
            "fallbacks with this reason",
        );
    }
    r.set(
        "serve.reader_fresh_bytes",
        log.fresh_alloc_max as f64,
        lat_us.len(),
        "max reader scratch growth per batch",
    );
    r.set(
        "serve.retire_backlog_max",
        backlog_max as f64,
        d,
        "max retire backlog after a publish",
    );
    r.set(
        "serve.snapshots_leaked",
        ss.leaked as f64,
        ROUNDS,
        "published - dropped after teardown",
    );
    r.set(
        "env.cpu_steal_pct",
        cpu1.steal_pct_since(&cpu0),
        1,
        "host steal share over the timed phases",
    );
    r.set(
        "peak_rss_mib",
        peak_rss as f64 / (1 << 20) as f64,
        1,
        "VmHWM over the measured phases",
    );

    if trace {
        r.set(
            "trace.overhead_pct",
            100.0 * secs(trace_cost) / secs(measured).max(1e-12),
            t.spans().len(),
            "time recording spans / measured rounds",
        );
        let (mut sizes, mut times) = (vec![], vec![]);
        for _ in 0..3 {
            let t0 = Instant::now();
            let ix = with_threads(1, || engine.build_index());
            times.push(secs(t0.elapsed()));
            sizes.push(ix.bytes() as f64);
        }
        r.set(
            "core.index_s",
            median(&times),
            times.len(),
            "median build_index at budget 1",
        );
        r.set(
            "core.index_mib",
            median(&sizes) / (1 << 20) as f64,
            sizes.len(),
            "BccIndex::bytes",
        );
        drop(engine);
        // Standalone graph-layer and full-solve references.
        let flat = decode(&mg);
        let mut scratch = DeltaScratch::new();
        let mut cur = flat.clone();
        let mut times = vec![];
        for delta in &inp.deltas {
            let t0 = Instant::now();
            let next = apply_delta(&cur, delta, &mut scratch);
            times.push(secs(t0.elapsed()));
            scratch.recycle(std::mem::replace(&mut cur, next));
        }
        r.set(
            "graph.apply_delta_s",
            median(&times),
            times.len(),
            "median standalone apply_delta",
        );
        let mut engine = BccEngine::new(BccOpts::default());
        let mut full = vec![];
        with_threads(1, || {
            engine.solve(&flat);
            for _ in 0..3 {
                let t0 = Instant::now();
                engine.solve(&flat);
                full.push(secs(t0.elapsed()));
            }
        });
        let ratio = if fallback_apply.is_empty() {
            0.0
        } else {
            median(&fallback_apply) / median(&full)
        };
        r.set(
            "dyn.fallback_cost_ratio",
            ratio,
            fallback_apply.len(),
            format!(
                "median fallen-back apply / warm full solve at budget 1 ({:.3} s)",
                median(&full)
            ),
        );
    }
    Ok((r, c, t))
}
