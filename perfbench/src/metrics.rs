//! The metric catalog (mirrored by `BENCHMARK.json`) and the run's output.

use std::collections::HashMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of one metric.
pub type Def = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("query_mqps", "Mquery/s", "higher"),
    ("read_p50_us", "us", "lower"),
    ("read_tail_us", "us", "lower"),
    ("fresh_p50_ms", "ms", "lower"),
    ("fresh_tail_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics, printed by traced runs. Layers are named after crates.
pub const PER_LAYER: &[Def] = &[
    ("graph.load_s", "s", "lower"),
    ("graph.decode_s", "s", "lower"),
    ("graph.bytes_per_edge", "B/edge", "lower"),
    ("graph.apply_delta_s", "s", "lower"),
    ("conn.first_cc_s", "s", "lower"),
    ("conn.last_cc_s", "s", "lower"),
    ("ett.rooting_s", "s", "lower"),
    ("core.tagging_s", "s", "lower"),
    ("core.solve_self_s", "s", "lower"),
    ("core.index_s", "s", "lower"),
    ("core.index_mib", "MiB", "lower"),
    ("core.answer_us", "us", "lower"),
    ("serve.start_s", "s", "lower"),
    ("serve.first_answer_ms", "ms", "lower"),
    ("dyn.apply_s", "s", "lower"),
    ("dyn.incremental_frac", "fraction", "higher"),
    ("dyn.fallback.churn", "count", "lower"),
    ("dyn.fallback.cross_component", "count", "lower"),
    ("dyn.fallback.chain_cap", "count", "lower"),
    ("dyn.fallback.region_cap", "count", "lower"),
    ("dyn.fallback.rehang_incomplete", "count", "lower"),
    ("dyn.fallback.work_budget", "count", "lower"),
    ("dyn.fallback_cost_ratio", "ratio", "lower"),
    ("serve.rebuild_s", "s", "lower"),
    ("serve.visible_lag_ms", "ms", "lower"),
    ("serve.reads_in_rebuild_frac", "fraction", "lower"),
    ("serve.reader_fresh_bytes", "B", "lower"),
    ("serve.snapshots_leaked", "count", "lower"),
    ("serve.retire_backlog_max", "count", "lower"),
    ("rt.steals", "count", "higher"),
    ("rt.pool_spawns", "count", "lower"),
    ("rt.warm_fresh_alloc_bytes", "B", "lower"),
    ("env.cpu_steal_pct", "%", "lower"),
    ("run.error_rate", "fraction", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Metric and workload names: `[A-Za-z0-9_.-]+`, starting with a letter or
/// digit, at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value with its sample count and how it was derived.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// Everything a run measured, keyed by metric name.
#[derive(Default)]
pub struct Report {
    values: HashMap<&'static str, Value>,
    /// Run settings printed with every record (budgets, counts, host).
    pub settings: Vec<(&'static str, String)>,
}

fn def(name: &str) -> &'static Def {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        let d = def(name);
        self.values.insert(
            d.0,
            Value {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    pub fn setting(&mut self, key: &'static str, value: impl ToString) {
        self.settings.push((key, value.to_string()));
    }

    /// The catalog section a run prints.
    pub fn catalog(trace: bool) -> &'static [Def] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Catalog metrics the run did not measure.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        Self::catalog(trace)
            .iter()
            .filter(|d| !self.values.contains_key(d.0))
            .map(|d| d.0)
            .collect()
    }

    /// Human-readable lines: every measured metric with unit, sample count
    /// and derivation, then the run settings.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(d.0) {
                let _ = writeln!(
                    s,
                    "{:<32} {:>14.6} {:<9} n={:<7} {}",
                    d.0, v.value, d.1, v.samples, v.note
                );
            }
        }
        for (k, v) in &self.settings {
            let _ = writeln!(s, "setting {k} = {v}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed`, and the catalog
    /// section's metrics with their units.
    pub fn result_json(&self, trace: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        let mut first = true;
        for d in Self::catalog(trace) {
            let Some(v) = self.values.get(d.0) else {
                continue;
            };
            if !first {
                s.push_str(", ");
            }
            first = false;
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.0, d.1
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.1.len() <= 16 && !d.1.is_empty(), "{}", d.0);
            assert!(matches!(d.2, "lower" | "higher"), "{}", d.0);
        }
        assert!(!valid_name("bad name") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn fallback_metrics_cover_every_engine_reason() {
        for reason in fastbcc_core::FALLBACK_REASONS {
            let name = format!("dyn.fallback.{reason}");
            assert!(PER_LAYER.iter().any(|d| d.0 == name), "{name}");
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let at = json.find(&format!("\"{key}\"")).expect(key);
            let rest = &json[at..];
            rest[..rest.find(']').unwrap()].to_string()
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let sec = section(key);
            let listed = sec.matches("\"name\"").count();
            assert_eq!(listed, defs.len(), "{key}: metric count");
            for d in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.0, d.1, d.2
                );
                assert!(sec.contains(&entry), "{key} lacks {entry}");
            }
        }
        let json_ok = json.len() <= 64 * 1024;
        assert!(json_ok);
    }
}
