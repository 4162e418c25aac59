//! Measurement utilities: repeated timing with medians (the paper runs
//! each test 10× and reports the median), geometric means (the paper's
//! cross-graph aggregate), simple CLI-argument parsing shared by the
//! experiment binaries, and the one row type every bin emits
//! ([`Record`]) with its JSON-lines writer.

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
    } else if s >= 0.001 {
        format!("{:.3}", s)
    } else {
        // Sub-millisecond rows (table2's `eng.seq` on small graphs) would
        // otherwise all print as 0.000.
        format!("{:.5}", s)
    }
}

/// One benchmark row: an ordered list of `(key, value)` columns, written
/// as one JSON object per line by [`write_json_lines`]. Every bin's rows
/// start from [`Record::new`], so every row carries the shared keys
/// `graph`, `algo`, `n` and `threads`; the rest are the bin's own columns,
/// appended in order with the typed setters.
#[derive(Debug)]
pub struct Record {
    cols: Vec<(&'static str, Value)>,
}

#[derive(Debug)]
enum Value {
    /// `None` is written as `null`.
    Str(Option<String>),
    Int(usize),
    /// Non-finite values are written as `null`.
    Num(f64),
    Bool(bool),
}

impl Record {
    /// A row with the shared keys: the input's name, the algorithm or
    /// configuration label (e.g. `"fast_bcc/warm"`), the input's vertex
    /// (or element) count, and the worker budget it was measured under.
    pub fn new(graph: &str, algo: &str, n: usize, threads: usize) -> Self {
        Self { cols: Vec::new() }
            .str("graph", graph)
            .str("algo", algo)
            .int("n", n)
            .int("threads", threads)
    }

    /// Append a string column (`None` → `null`).
    pub fn str<'a>(self, key: &'static str, v: impl Into<Option<&'a str>>) -> Self {
        self.push(key, Value::Str(v.into().map(String::from)))
    }

    /// Append an integer column (counts and byte sizes).
    pub fn int(self, key: &'static str, v: usize) -> Self {
        self.push(key, Value::Int(v))
    }

    /// Append a floating-point column (seconds, rates, ratios).
    pub fn num(self, key: &'static str, v: f64) -> Self {
        self.push(key, Value::Num(v))
    }

    /// Append a boolean column.
    pub fn flag(self, key: &'static str, v: bool) -> Self {
        self.push(key, Value::Bool(v))
    }

    /// Append the worker pool's process-lifetime counters as the record is
    /// taken: OS workers spawned (`pool_workers`, constant across warm
    /// runs), successful deque steals (`steal_count`) and the deepest any
    /// worker deque got (`deque_max_depth`).
    pub fn pool_counters(self) -> Self {
        self.int("pool_workers", fastbcc_primitives::pool_spawns())
            .int("steal_count", fastbcc_primitives::steal_count())
            .int("deque_max_depth", fastbcc_primitives::deque_max_depth())
    }

    fn push(mut self, key: &'static str, v: Value) -> Self {
        debug_assert!(
            self.cols.iter().all(|(k, _)| *k != key),
            "duplicate column {key}"
        );
        self.cols.push((key, v));
        self
    }

    /// Serialize as a single JSON object, columns in insertion order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, v)) in self.cols.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, key);
            out.push(':');
            match v {
                Value::Str(Some(s)) => push_json_str(&mut out, s),
                Value::Int(x) => out.push_str(&x.to_string()),
                Value::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Str(None) | Value::Num(_) => out.push_str("null"),
            }
        }
        out.push('}');
        out
    }
}

/// Append `s` quoted and escaped for JSON (quotes, backslashes, and
/// control characters), so no row can emit invalid JSON for an exotic
/// graph name.
fn push_json_str(out: &mut String, s: &str) {
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
}

/// Write `records` as JSON lines (one object per line — append-friendly
/// and trivially parsed by any plotting script) to `path`, if one was
/// given (the bins pass their `--json` argument). Panics if the file
/// cannot be written: a bench run without its artifact is a failed run.
pub fn write_json_lines(path: Option<&str>, records: &[Record]) {
    let Some(path) = path else { return };
    let text: String = records.iter().map(|r| r.to_json() + "\n").collect();
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {} records to {path}", records.len());
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
        assert_eq!(fmt_secs(Duration::from_micros(420)), "0.00042");
        assert_eq!(fmt_secs(Duration::from_secs_f64(2.346)), "2.35");
        assert_eq!(fmt_secs(Duration::from_secs(120)), "120");
    }

    #[test]
    fn record_json_shape() {
        let r = Record::new("SQR*", "fast_bcc/par", 10, 4)
            .int("m", 20)
            .num("median_secs", 0.25)
            .str("backend", "compressed")
            .str("last_fallback", None)
            .flag("equal", true)
            .num("speedup", f64::NAN)
            .num("ratio", f64::INFINITY);
        assert_eq!(
            r.to_json(),
            "{\"graph\":\"SQR*\",\"algo\":\"fast_bcc/par\",\"n\":10,\"threads\":4,\
             \"m\":20,\"median_secs\":0.25,\"backend\":\"compressed\",\
             \"last_fallback\":null,\"equal\":true,\"speedup\":null,\"ratio\":null}"
        );
    }

    #[test]
    fn json_escaping_of_strings() {
        let r = Record::new("a\"b\\c\nd\u{1}", "x", 0, 1);
        assert!(r.to_json().contains("\"a\\\"b\\\\c\\nd\\u0001\""));
    }

    #[test]
    fn json_lines_roundtrip_to_disk() {
        let path =
            std::env::temp_dir().join(format!("fastbcc_measure_json_{}.jsonl", std::process::id()));
        let recs = vec![
            Record::new("g1", "a", 1, 1).num("median_secs", 0.5),
            Record::new("g2", "b", 3, 2).int("fresh_alloc_bytes", 0),
        ];
        write_json_lines(path.to_str(), &recs);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], recs[0].to_json());
        assert_eq!(lines[1], recs[1].to_json());
    }
}
