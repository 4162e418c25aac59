//! Microbenchmark for the flat primitive kernels: each kernelized entry
//! point (`prefix_sums`, `scan_inclusive_u64`, `pack_neq_into`,
//! `pack_bits_into`) against the generic blocked scan / pack it
//! specializes, measured on the same inputs with preallocated outputs so
//! warm repetitions allocate nothing. `scalar_secs` times the generic
//! reference and `simd_secs` the kernel path. Emits a single JSON
//! document (default `BENCH_primitives.json`) that the bench-smoke CI job
//! gates on: every row must carry the full column set and report
//! `warm_fresh_alloc_bytes == 0`.
//!
//! Usage: `primitives [--n 4194304] [--reps 5] [--threads 0] [--json PATH]`
//! (`--threads 0` = the runtime default, honoring `FASTBCC_THREADS`).

use fastbcc_bench::measure::{time_median, Args};
use fastbcc_primitives::{pack, scan, with_threads};
use std::io::Write as _;

/// One reference-vs-kernel comparison row.
struct Row {
    primitive: &'static str,
    n: usize,
    threads: usize,
    scalar_secs: f64,
    simd_secs: f64,
    /// Output-buffer capacity growth across the timed warm repetitions —
    /// must be 0: both paths are required to run allocation-free once the
    /// cold repetition has sized the buffers.
    warm_fresh_alloc_bytes: usize,
    steal_count: u64,
    deque_max_depth: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.simd_secs.max(1e-12)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"primitive\":\"{}\",\"n\":{},\"threads\":{},\
             \"scalar_secs\":{:.9},\"simd_secs\":{:.9},\"speedup\":{:.4},\
             \"warm_fresh_alloc_bytes\":{},\"steal_count\":{},\
             \"deque_max_depth\":{}}}",
            self.primitive,
            self.n,
            self.threads,
            self.scalar_secs,
            self.simd_secs,
            self.speedup(),
            self.warm_fresh_alloc_bytes,
            self.steal_count,
            self.deque_max_depth,
        )
    }
}

/// Deterministic pseudo-random u32 stream (splitmix-style), so the bench
/// input is reproducible without any RNG dependency.
fn rand_u32s(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u32
        })
        .collect()
}

/// What [`compare`] asks of its single driver closure — one closure (not
/// three) so it can own mutable borrows of the shared input/output buffers.
enum Op {
    /// The generic reference path.
    Scalar,
    /// The kernelized entry point.
    Simd,
    /// Return the total output-buffer capacity in bytes.
    CapacityBytes,
}

/// Time the reference and kernel paths over `reps` warm repetitions each
/// (after one untimed cold call apiece), tracking output-capacity growth
/// across the timed region.
fn compare(
    primitive: &'static str,
    n: usize,
    threads: usize,
    reps: usize,
    mut run: impl FnMut(Op) -> usize,
) -> Row {
    run(Op::Scalar);
    run(Op::Simd);
    let warm_before = run(Op::CapacityBytes);
    let (_, scalar_t) = time_median(reps, || run(Op::Scalar));
    let (_, simd_t) = time_median(reps, || run(Op::Simd));
    let warm_after = run(Op::CapacityBytes);
    Row {
        primitive,
        n,
        threads,
        scalar_secs: scalar_t.as_secs_f64(),
        simd_secs: simd_t.as_secs_f64(),
        warm_fresh_alloc_bytes: warm_after.saturating_sub(warm_before),
        steal_count: fastbcc_primitives::steal_count() as u64,
        deque_max_depth: fastbcc_primitives::deque_max_depth(),
    }
}

fn main() {
    let args = Args::parse();
    let n = args.get_usize("--n", 1 << 22);
    let reps = args.get_usize("--reps", 5);
    let threads = {
        let t = args.get_usize("--threads", 0);
        if t == 0 {
            fastbcc_primitives::num_threads()
        } else {
            t
        }
    };

    let rows = with_threads(threads, || run_all(n, reps, threads));

    for r in &rows {
        eprintln!(
            "{:<22} n={:>9} t={} reference {:>10.6}s kernel {:>10.6}s speedup {:>5.2}x",
            r.primitive,
            r.n,
            r.threads,
            r.scalar_secs,
            r.simd_secs,
            r.speedup(),
        );
    }

    let path = args.get("--json").unwrap_or("BENCH_primitives.json");
    let body = rows
        .iter()
        .map(Row::to_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let doc = format!(
        "{{\n  \"description\": \"generic reference vs kernelized flat-primitive entry points \
         (median of {reps} warm reps, preallocated outputs)\",\n  \
         \"threads\": {threads},\n  \"rows\": [\n    {body}\n  ]\n}}\n"
    );
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
    f.write_all(doc.as_bytes())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("[json ] wrote {path}");
}

fn run_all(n: usize, reps: usize, threads: usize) -> Vec<Row> {
    let mut rows = Vec::new();

    // --- Exclusive scan over usize counts (the pack/sort offset pass). ---
    {
        let base: Vec<usize> = rand_u32s(n, 1)
            .iter()
            .map(|&x| (x & 0xFF) as usize)
            .collect();
        let mut buf = vec![0usize; n];
        rows.push(compare("scan_exclusive_usize", n, threads, reps, |op| {
            match op {
                Op::Scalar => {
                    buf.copy_from_slice(&base);
                    scan::scan_exclusive_inplace(&mut buf, 0usize, |x, y| x + y);
                }
                Op::Simd => {
                    buf.copy_from_slice(&base);
                    scan::prefix_sums(&mut buf);
                }
                Op::CapacityBytes => return buf.capacity() * std::mem::size_of::<usize>(),
            }
            0
        }));
    }

    // --- Inclusive scan over u64 (ETT list-rank style accumulation). ---
    {
        let base: Vec<u64> = rand_u32s(n, 2).iter().map(|&x| x as u64).collect();
        let mut buf = vec![0u64; n];
        rows.push(compare("scan_inclusive_u64", n, threads, reps, |op| {
            match op {
                Op::Scalar => {
                    buf.copy_from_slice(&base);
                    scan::scan_inclusive_inplace(&mut buf, 0u64, |x, y| x + y);
                }
                Op::Simd => {
                    buf.copy_from_slice(&base);
                    scan::scan_inclusive_u64(&mut buf);
                }
                Op::CapacityBytes => return buf.capacity() * std::mem::size_of::<u64>(),
            }
            0
        }));
    }

    // --- Sentinel pack (the sparse edgeMap frontier compaction). ---
    {
        const EMPTY: u32 = u32::MAX;
        // ~50% survivors, like a mid-traversal frontier.
        let src: Vec<u32> = rand_u32s(n, 3)
            .iter()
            .map(|&x| if x & 1 == 0 { x >> 1 } else { EMPTY })
            .collect();
        let reference = |out: &mut Vec<u32>| {
            pack::pack_map_into(src.len(), |i| src[i] != EMPTY, |i| src[i], out)
        };
        let mut out: Vec<u32> = Vec::new();
        reference(&mut out);
        let mut out2 = out.clone();
        rows.push(compare("pack_neq_u32", n, threads, reps, |op| {
            match op {
                Op::Scalar => reference(&mut out),
                Op::Simd => pack::pack_neq_into(&src, EMPTY, &mut out2),
                Op::CapacityBytes => {
                    return (out.capacity() + out2.capacity()) * std::mem::size_of::<u32>()
                }
            }
            0
        }));
    }

    // --- Bitmap pack (the dense edgeMap frontier sweep). ---
    {
        let words: Vec<u64> = rand_u32s(n.div_ceil(64), 4)
            .iter()
            .zip(rand_u32s(n.div_ceil(64), 5).iter())
            .map(|(&a, &b)| ((a as u64) << 32) | b as u64)
            .collect();
        let reference = |out: &mut Vec<u32>| {
            let bit = |v: usize| words[v / 64] >> (v % 64) & 1 == 1;
            pack::pack_map_into(n, bit, |v| v as u32, out)
        };
        let mut out: Vec<u32> = Vec::new();
        reference(&mut out);
        let mut out2 = out.clone();
        rows.push(compare("pack_bits_u64", n, threads, reps, |op| {
            match op {
                Op::Scalar => reference(&mut out),
                Op::Simd => pack::pack_bits_into(&words, n, &mut out2),
                Op::CapacityBytes => {
                    return (out.capacity() + out2.capacity()) * std::mem::size_of::<u32>()
                }
            }
            0
        }));
    }

    rows
}
