//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate
//! (and, for `solve_view`, from the phase breakdown the engine returns):
//! name, start, end, parent, and the request they belong to. They stay in
//! a pre-sized buffer and are written out when the run ends. With tracing
//! off, [`Tracer::span`] records nothing.
//!
//! The timestamps are taken by the benchmark whether or not it traces, so
//! the only work a traced run adds is the recording itself; the tracer
//! times it ([`Tracer::cost`]) to report the tracing overhead.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's base.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Request identifier shared by the spans of one operation (the delta
    /// index for the stream, the repetition index for set-up and solves).
    pub request: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    /// Time spent inside [`Tracer::span`] recording.
    cost: Duration,
}

/// Per-name totals: count, summed duration, summed self time, and the
/// least share of a parent span its children covered.
#[derive(Clone, Debug)]
pub struct NameSummary {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
    pub min_child_coverage: Option<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            base: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 14 } else { 0 }),
            cost: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the tracer's base to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Record a span; returns its id (for children), or `None` when off.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t0 = Instant::now();
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.cost += t0.elapsed();
        Some(self.spans.len() - 1)
    }

    /// Total time spent recording spans so far.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    /// Record consecutive children of `parent` laid end to end from
    /// `start`, one per `(name, duration)` — how the engine's phase
    /// breakdown becomes spans.
    pub fn sequence(
        &mut self,
        parent: Option<usize>,
        start: Instant,
        parts: &[(&'static str, Duration)],
        request: u64,
    ) {
        let mut at = start;
        for &(name, d) in parts {
            self.span(name, at, at + d, parent, request);
            at += d;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Union length of the children's intervals, clipped to each parent.
    fn covered(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        kids.iter_mut()
            .zip(&self.spans)
            .map(|(iv, p)| {
                iv.sort_unstable();
                let (mut covered, mut reach) = (0u64, p.start);
                for &(a, b) in iv.iter() {
                    let (a, b) = (a.max(reach), b.min(p.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                covered
            })
            .collect()
    }

    /// Per-name self-time summary, in first-seen order.
    pub fn summary(&self) -> Vec<NameSummary> {
        let covered = self.covered();
        let has_kids: Vec<bool> = {
            let mut k = vec![false; self.spans.len()];
            for s in &self.spans {
                if let Some(p) = s.parent {
                    k[p] = true;
                }
            }
            k
        };
        let mut out: Vec<NameSummary> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let pos = match out.iter().position(|e| e.name == s.name) {
                Some(p) => p,
                None => {
                    out.push(NameSummary {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                        min_child_coverage: None,
                    });
                    out.len() - 1
                }
            };
            let e = &mut out[pos];
            e.count += 1;
            e.total_s += s.dur() as f64 * 1e-9;
            e.self_s += (s.dur() - covered[i].min(s.dur())) as f64 * 1e-9;
            if has_kids[i] && s.dur() > 0 {
                let c = covered[i] as f64 / s.dur() as f64;
                e.min_child_coverage = Some(e.min_child_coverage.map_or(c, |m: f64| m.min(c)));
            }
        }
        out
    }

    /// The span dump and per-name summary as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                sp.name, sp.start, sp.end, sp.request
            );
        }
        s.push_str("],\"summary\":[");
        for (i, e) in self.summary().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let cov = e
                .min_child_coverage
                .map_or("null".to_string(), |c| format!("{c:.6}"));
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"count\":{},\"total_s\":{:.9},\"self_s\":{:.9},\"min_child_coverage\":{cov}}}",
                e.name, e.count, e.total_s, e.self_s
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let b = t.base;
        let ms = Duration::from_millis;
        let p = t.span("parent", b, b + ms(10), None, 0);
        // Overlapping children cover 2..7 once; one spills past the parent.
        t.span("child", b + ms(2), b + ms(5), p, 0);
        t.span("child", b + ms(4), b + ms(7), p, 0);
        t.span("child", b + ms(9), b + ms(12), p, 0);
        let s = t.summary();
        let parent = s.iter().find(|e| e.name == "parent").unwrap();
        assert!((parent.self_s - 0.004).abs() < 1e-9);
        assert!((parent.min_child_coverage.unwrap() - 0.6).abs() < 1e-9);
        assert_eq!(s.iter().find(|e| e.name == "child").unwrap().count, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", now, now, None, 0), None);
        assert!(t.spans().is_empty());
        assert_eq!(t.cost(), Duration::ZERO);
    }
}
