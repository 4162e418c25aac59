//! `fastbcc-perfbench` — the workspace's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <powerlaw|road|knn> --seed <n> [--seconds <s, default 30>] [--trace <0|1>]
//! ```
//!
//! One run generates the workload's graph and delta stream from the seed,
//! writes the graph as a snapshot file, and then measures the path a user
//! pays for: snapshot file → first answered query, warm solves, quiescent
//! reads, and `submit_delta` → new version visible to a querying reader
//! (see `scenario`). Every output is checked against the Hopcroft–Tarjan
//! oracle outside the timed regions.
//!
//! Output: one line per metric (value, unit, sample count, derivation) and
//! the run settings, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). A traced run also writes its span dump
//! to `.bench_run/trace-<workload>-<seed>.json`. The exit code is non-zero
//! when any check failed.

mod metrics;
mod oracle;
mod scenario;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

/// Scratch directory (snapshot files, span dumps), relative to the
/// working directory.
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let dir = Path::new(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perfbench: cannot create {RUN_DIR}: {e}");
        return ExitCode::from(2);
    }
    let out = match scenario::run(
        &w,
        args.seed,
        workload::READ_SHARE * args.seconds,
        args.trace,
        dir,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let missing = out.report.missing(args.trace);
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    print!("{}", out.report.table());
    if args.trace {
        let path = dir.join(format!("trace-{}-{}.json", w.name, args.seed));
        if let Err(e) = std::fs::write(&path, out.tracer.to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        for e in out.tracer.summary() {
            println!(
                "span {:<24} n={:<4} total={:.6}s self={:.6}s children_cover={}",
                e.name,
                e.count,
                e.total_s,
                e.self_s,
                e.min_child_coverage
                    .map_or("-".into(), |c| format!("{:.1}%", 100.0 * c))
            );
        }
        println!("spans written to {}", path.display());
    }
    if !missing.is_empty() {
        println!("FAILED: metrics not measured: {missing:?}");
    }
    let failed = out.failed + missing.len() as u64;
    println!(
        "{}",
        out.report.result_json(args.trace, out.attempted, failed)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_clean_at_tiny_scale() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_run/test");
        std::fs::create_dir_all(&dir).unwrap();
        for w in workload::all() {
            assert!(metrics::valid_name(w.name));
            for trace in [false, true] {
                let out = scenario::run(&w.tiny(), 3, 0.05, trace, &dir).unwrap();
                assert_eq!(
                    out.failures,
                    Vec::<String>::new(),
                    "{} trace={trace}",
                    w.name
                );
                assert_eq!(out.report.get("run.error_rate"), Some(0.0));
                assert!(out.attempted > 0);
                assert_eq!(out.report.missing(trace), Vec::<&str>::new(), "{}", w.name);
            }
        }
    }
}
