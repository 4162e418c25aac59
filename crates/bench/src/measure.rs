//! Measurement utilities: repeated timing with medians (the paper runs
//! each test 10× and reports the median), geometric means (the paper's
//! cross-graph aggregate), simple CLI-argument parsing shared by the
//! experiment binaries, and JSON-lines emission of per-run records —
//! including the space counters ([`RunRecord::aux_peak_bytes`] /
//! [`RunRecord::fresh_alloc_bytes`]) that future PRs chart for the Fig. 7
//! space trajectory.

use std::io::Write;
use std::time::{Duration, Instant};

/// Time one invocation.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Run `f` `reps` times, returning the last result and the **median**
/// duration (the paper's protocol at reps = 10; the harness defaults
/// lower to fit the CI budget — tune with `--reps`).
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (r, d) = time(&mut f);
        times.push(d);
        last = Some(r);
    }
    times.sort_unstable();
    (last.unwrap(), times[times.len() / 2])
}

/// Geometric mean of positive values (`NaN`-free: empty → 1.0).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Seconds as a compact human string.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.3}", s)
    }
}

/// One benchmark observation, serialized as a JSON object. Space columns
/// are recorded alongside time so one artifact feeds both the Tab. 2 time
/// charts and the Fig. 7 space-trajectory charts.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Suite graph name (e.g. `"SQR*"`).
    pub graph: String,
    /// Algorithm/configuration label (e.g. `"fast_bcc/par"`).
    pub algo: String,
    /// Vertex count.
    pub n: usize,
    /// Undirected edge count.
    pub m: usize,
    /// Installed worker budget the run was measured under (1 = sequential
    /// configuration). With the persistent pool this is the *enforced*
    /// concurrency cap, not a request — see `fastbcc_primitives::with_threads`.
    pub threads: usize,
    /// OS worker threads the shared pool had spawned when the record was
    /// taken. Constant across warm runs; recorded to prove measured runs
    /// paid no thread-spawn latency.
    pub pool_workers: usize,
    /// Median wall-clock seconds.
    pub median_secs: f64,
    /// Peak auxiliary bytes held live during the run (Fig. 7 metric).
    pub aux_peak_bytes: usize,
    /// Buffer capacity newly allocated during the run — 0 when a pooled
    /// `BccEngine` workspace served every major array.
    pub fresh_alloc_bytes: usize,
    /// Bytes held in the frontier-staging buffers (the shared edgeMap
    /// claim slots and dense bitmaps, plus the bounded per-worker
    /// local-search stacks). 0 for algorithms that stage nothing.
    pub arena_bytes: usize,
    /// Total reserved bytes of the pooled engine workspace (capacity of
    /// every scratch buffer) — the `O(n + m)` space-regression gate reads
    /// this. 0 for algorithms without a pooled workspace.
    pub scratch_bytes: usize,
    /// The linear budget `scratch_bytes` must fit
    /// (`fastbcc_core::space::workspace_budget_bytes`), emitted alongside
    /// the measurement so the CI gate compares two fields instead of
    /// duplicating the formula. 0 when no budget applies.
    pub scratch_budget_bytes: usize,
    /// Cumulative successful deque steals in the worker pool when the
    /// record was taken (process-lifetime counter; deltas between records
    /// show how much load balancing a run needed). Always 0 under the
    /// sequential budget or when upstream rayon replaces the shim.
    pub steal_count: u64,
    /// High-water mark of any worker's deque depth (process lifetime) —
    /// bounded by the pool's fixed deque capacity, so a value near that
    /// cap flags ranges spilling to the shared claim cursor.
    pub deque_max_depth: usize,
    /// Graph backend the run solved against
    /// (`fastbcc_graph::GraphView::backend_name`: `"flat"`,
    /// `"compressed"`, `"flat-mmap"`, `"compressed-mmap"`). Empty for
    /// records that predate the backend column or don't touch a graph.
    pub backend: String,
    /// Bytes the graph representation itself occupies
    /// ([`fastbcc_graph::GraphView::bytes`]) — the Fig. 7 space charts
    /// divide this by `m` for the bytes-per-edge column.
    pub graph_bytes: usize,
    /// Bytes the graph representation has *reserved*
    /// ([`fastbcc_graph::GraphView::capacity_bytes`]); slack beyond
    /// `graph_bytes` is pooled-buffer headroom, not data.
    pub graph_capacity_bytes: usize,
}

impl RunRecord {
    /// Serialize as a single JSON object (no external deps; keys are fixed
    /// and the only string fields are escaped).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"graph\":{},\"algo\":{},\"n\":{},\"m\":{},\"threads\":{},\
             \"pool_workers\":{},\"median_secs\":{:.9},\"aux_peak_bytes\":{},\
             \"fresh_alloc_bytes\":{},\"arena_bytes\":{},\"scratch_bytes\":{},\
             \"scratch_budget_bytes\":{},\"steal_count\":{},\
             \"deque_max_depth\":{},\"backend\":{},\"graph_bytes\":{},\
             \"graph_capacity_bytes\":{}}}",
            json_escape(&self.graph),
            json_escape(&self.algo),
            self.n,
            self.m,
            self.threads,
            self.pool_workers,
            self.median_secs,
            self.aux_peak_bytes,
            self.fresh_alloc_bytes,
            self.arena_bytes,
            self.scratch_bytes,
            self.scratch_budget_bytes,
            self.steal_count,
            self.deque_max_depth,
            json_escape(&self.backend),
            self.graph_bytes,
            self.graph_capacity_bytes,
        )
    }
}

/// Quote and escape a string for JSON embedding (quotes, backslashes, and
/// control characters) — shared by every bench bin that formats records by
/// hand, so no artifact can emit invalid JSON for an exotic graph name.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write records as JSON lines (one object per line — append-friendly and
/// trivially parsed by any plotting script).
pub fn write_json_lines(path: &str, records: &[RunRecord]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        writeln!(f, "{}", r.to_json())?;
    }
    f.flush()
}

/// Minimal CLI parsing: `--key value` pairs and flags.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn median_of_reps() {
        let mut calls = 0;
        let (r, d) = time_median(5, || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(100));
            calls
        });
        assert_eq!(calls, 5);
        assert_eq!(r, 5);
        assert!(d >= Duration::from_micros(50));
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(Duration::from_millis(1)), "0.001");
        assert_eq!(fmt_secs(Duration::from_secs_f64(2.346)), "2.35");
        assert_eq!(fmt_secs(Duration::from_secs(120)), "120");
    }

    #[test]
    fn run_record_json_shape() {
        let r = RunRecord {
            graph: "SQR*".into(),
            algo: "fast_bcc/par".into(),
            n: 10,
            m: 20,
            threads: 4,
            pool_workers: 3,
            median_secs: 0.25,
            aux_peak_bytes: 4096,
            fresh_alloc_bytes: 0,
            arena_bytes: 2048,
            scratch_bytes: 65536,
            scratch_budget_bytes: 131072,
            steal_count: 17,
            deque_max_depth: 5,
            backend: "compressed".into(),
            graph_bytes: 333,
            graph_capacity_bytes: 444,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"graph\":\"SQR*\""));
        assert!(j.contains("\"backend\":\"compressed\""));
        assert!(j.contains("\"graph_bytes\":333"));
        assert!(j.contains("\"graph_capacity_bytes\":444"));
        assert!(j.contains("\"pool_workers\":3"));
        assert!(j.contains("\"aux_peak_bytes\":4096"));
        assert!(j.contains("\"fresh_alloc_bytes\":0"));
        assert!(j.contains("\"arena_bytes\":2048"));
        assert!(j.contains("\"scratch_bytes\":65536"));
        assert!(j.contains("\"scratch_budget_bytes\":131072"));
        assert!(j.contains("\"steal_count\":17"));
        assert!(j.contains("\"deque_max_depth\":5"));
        assert!(j.contains("\"median_secs\":0.25"));
    }

    #[test]
    fn json_escaping_of_strings() {
        let r = RunRecord {
            graph: "a\"b\\c\nd".into(),
            algo: "x".into(),
            n: 0,
            m: 0,
            threads: 1,
            pool_workers: 0,
            median_secs: 0.0,
            aux_peak_bytes: 0,
            fresh_alloc_bytes: 0,
            arena_bytes: 0,
            scratch_bytes: 0,
            scratch_budget_bytes: 0,
            steal_count: 0,
            deque_max_depth: 0,
            ..Default::default()
        };
        assert!(r.to_json().contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn json_lines_roundtrip_to_disk() {
        let path =
            std::env::temp_dir().join(format!("fastbcc_measure_json_{}.jsonl", std::process::id()));
        let recs = vec![
            RunRecord {
                graph: "g1".into(),
                algo: "a".into(),
                n: 1,
                m: 2,
                threads: 1,
                pool_workers: 0,
                median_secs: 0.5,
                aux_peak_bytes: 100,
                fresh_alloc_bytes: 100,
                arena_bytes: 0,
                scratch_bytes: 0,
                scratch_budget_bytes: 0,
                steal_count: 0,
                deque_max_depth: 0,
                ..Default::default()
            },
            RunRecord {
                graph: "g2".into(),
                algo: "b".into(),
                n: 3,
                m: 4,
                threads: 2,
                pool_workers: 1,
                median_secs: 1.5,
                aux_peak_bytes: 200,
                fresh_alloc_bytes: 0,
                arena_bytes: 64,
                scratch_bytes: 4096,
                scratch_budget_bytes: 8192,
                steal_count: 3,
                deque_max_depth: 2,
                ..Default::default()
            },
        ];
        write_json_lines(path.to_str().unwrap(), &recs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], recs[0].to_json());
        assert_eq!(lines[1], recs[1].to_json());
    }
}
