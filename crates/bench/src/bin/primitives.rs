//! Microbenchmark for the flat primitive kernels: each kernelized entry
//! point (`prefix_sums`, `scan_inclusive_u64`, `pack_neq_into`,
//! `pack_bits_into`) against the generic blocked scan / pack it
//! specializes, measured on the same inputs with preallocated outputs so
//! warm repetitions allocate nothing. `reference_secs` times the generic
//! reference and `kernel_secs` the kernel path. Writes one JSON line per
//! primitive (`algo`; `graph` names the input distribution; default path
//! `BENCH_primitives.json`) that the bench-smoke CI job gates on: every
//! row must carry the full column set and report
//! `warm_fresh_alloc_bytes == 0`.
//!
//! Usage: `primitives [--n 4194304] [--reps 5] [--threads 0] [--json PATH]`
//! (`--threads 0` = the runtime default, honoring `FASTBCC_THREADS`).

use fastbcc_bench::measure::{time_median, write_json_lines, Args, Record};
use fastbcc_primitives::{pack, scan, with_threads};

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

/// What [`Setup::compare`] asks of its single driver closure — one closure (not
/// three) so it can own mutable borrows of the shared input/output buffers.
enum Op {
    /// The generic reference path.
    Reference,
    /// The kernelized entry point.
    Kernel,
    /// Return the total output-buffer capacity in bytes.
    CapacityBytes,
}

/// What every comparison shares: the input length, the worker budget and
/// the number of timed repetitions.
struct Setup {
    n: usize,
    threads: usize,
    reps: usize,
}

impl Setup {
    /// Time the reference and kernel paths of `primitive` on `input` over
    /// `reps` warm repetitions each (after one untimed cold call apiece),
    /// tracking output-capacity growth across the timed region:
    /// `warm_fresh_alloc_bytes` must be 0, as both paths are required to
    /// run allocation-free once the cold repetition has sized the buffers.
    fn compare(&self, primitive: &str, input: &str, mut run: impl FnMut(Op) -> usize) -> Record {
        let Setup { n, threads, reps } = *self;
        run(Op::Reference);
        run(Op::Kernel);
        let warm_before = run(Op::CapacityBytes);
        let (_, reference) = time_median(reps, || run(Op::Reference));
        let (_, kernel) = time_median(reps, || run(Op::Kernel));
        let warm_fresh = run(Op::CapacityBytes).saturating_sub(warm_before);
        let (reference, kernel) = (reference.as_secs_f64(), kernel.as_secs_f64());
        let speedup = reference / kernel.max(1e-12);
        eprintln!(
            "{primitive:<22} n={n:>9} t={threads} reference {reference:>10.6}s \
             kernel {kernel:>10.6}s speedup {speedup:>5.2}x"
        );
        Record::new(input, primitive, n, threads)
            .num("reference_secs", reference)
            .num("kernel_secs", kernel)
            .num("speedup", speedup)
            .int("warm_fresh_alloc_bytes", warm_fresh)
            .int("steal_count", fastbcc_primitives::steal_count())
            .int("deque_max_depth", fastbcc_primitives::deque_max_depth())
    }
}

fn main() {
    let args = Args::parse();
    let threads = match args.get_usize("--threads", 0) {
        0 => fastbcc_primitives::num_threads(),
        t => t,
    };
    let setup = Setup {
        n: args.get_usize("--n", 1 << 22),
        threads,
        reps: args.get_usize("--reps", 5),
    };
    let rows = with_threads(threads, || run_all(&setup));
    let path = args.get("--json").unwrap_or("BENCH_primitives.json");
    write_json_lines(Some(path), &rows);
}

fn run_all(setup: &Setup) -> Vec<Record> {
    let n = setup.n;
    let mut rows = Vec::new();

    // --- Exclusive scan over usize counts (the pack/sort offset pass). ---
    {
        let base: Vec<usize> = rand_u32s(n, 1)
            .iter()
            .map(|&x| (x & 0xFF) as usize)
            .collect();
        let mut buf = vec![0usize; n];
        rows.push(setup.compare("scan_exclusive_usize", "uniform_u8", |op| {
            match op {
                Op::Reference => {
                    buf.copy_from_slice(&base);
                    scan::scan_exclusive_inplace(&mut buf, 0usize, |x, y| x + y);
                }
                Op::Kernel => {
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
        rows.push(setup.compare("scan_inclusive_u64", "uniform_u32", |op| {
            match op {
                Op::Reference => {
                    buf.copy_from_slice(&base);
                    scan::scan_inclusive_inplace(&mut buf, 0u64, |x, y| x + y);
                }
                Op::Kernel => {
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
        rows.push(setup.compare("pack_neq_u32", "half_sentinel_u32", |op| {
            match op {
                Op::Reference => reference(&mut out),
                Op::Kernel => pack::pack_neq_into(&src, EMPTY, &mut out2),
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
        rows.push(setup.compare("pack_bits_u64", "uniform_bits", |op| {
            match op {
                Op::Reference => reference(&mut out),
                Op::Kernel => pack::pack_bits_into(&words, n, &mut out2),
                Op::CapacityBytes => {
                    return (out.capacity() + out2.capacity()) * std::mem::size_of::<u32>()
                }
            }
            0
        }));
    }

    rows
}
