//! Parallel prefix sums (scan): `O(n)` work, `O(log n)` span.
//!
//! The classic blocked two-pass scheme [BFGS20 §4]:
//!
//! 1. split the input into `B` contiguous blocks and reduce each in parallel;
//! 2. exclusive-scan the `B` block sums (sequentially — `B` is a small
//!    multiple of the worker count, so this is `O(p)` ≪ `O(n)`);
//! 3. re-scan each block in parallel seeded with its block offset.
//!
//! With `B = Θ(p)` the span is `O(n/B + B) = O(n/p + p)`, which realizes the
//! `O(log n)` span bound of the recursive algorithm for all practical `n`
//! while touching the data exactly twice.

use crate::par::{block_bounds, num_blocks, par_blocks_collect, par_blocks_mut, DEFAULT_GRAIN};

/// In-place **exclusive** scan with operator `op` and identity `id`.
/// Returns the total reduction of the original input.
///
/// After the call, `a[i]` holds `op(id, a[0], ..., a[i-1])`.
pub fn scan_exclusive_inplace<T, Op>(a: &mut [T], id: T, op: Op) -> T
where
    T: Copy + Send + Sync,
    Op: Fn(T, T) -> T + Sync + Send + Copy,
{
    let n = a.len();
    if n == 0 {
        return id;
    }
    let blocks = num_blocks(n, DEFAULT_GRAIN);
    if blocks <= 1 {
        let mut acc = id;
        for x in a.iter_mut() {
            let old = *x;
            *x = acc;
            acc = op(acc, old);
        }
        return acc;
    }
    let bounds = block_bounds(n, blocks);

    // Pass 1: per-block reductions.
    let mut sums = par_blocks_collect(&bounds, |_, r| a[r].iter().fold(id, |acc, &x| op(acc, x)));

    // Sequential scan over the (few) block sums.
    let mut acc = id;
    for s in sums.iter_mut() {
        let old = *s;
        *s = acc;
        acc = op(acc, old);
    }
    let total = acc;

    // Pass 2: per-block exclusive scan seeded with the block offset.
    par_blocks_mut(a, &bounds, |b, blk| {
        let mut acc = sums[b];
        for x in blk.iter_mut() {
            let old = *x;
            *x = acc;
            acc = op(acc, old);
        }
    });
    total
}

/// In-place **inclusive** scan; returns the total.
pub fn scan_inclusive_inplace<T, Op>(a: &mut [T], id: T, op: Op) -> T
where
    T: Copy + Send + Sync,
    Op: Fn(T, T) -> T + Sync + Send + Copy,
{
    let n = a.len();
    if n == 0 {
        return id;
    }
    let blocks = num_blocks(n, DEFAULT_GRAIN);
    let bounds = block_bounds(n, blocks);
    let mut sums = par_blocks_collect(&bounds, |_, r| a[r].iter().fold(id, |acc, &x| op(acc, x)));
    let mut acc = id;
    for s in sums.iter_mut() {
        let old = *s;
        *s = acc;
        acc = op(acc, old);
    }
    let total = acc;
    par_blocks_mut(a, &bounds, |b, blk| {
        let mut acc = sums[b];
        for x in blk.iter_mut() {
            acc = op(acc, *x);
            *x = acc;
        }
    });
    total
}

/// Exclusive prefix sums of `usize` counts — the workhorse for offsets.
/// Returns the total.
///
/// Sequential runs (one worker, or one block) take a **single pass**: the
/// [`crate::kernels::exclusive_scan_usize`] kernel forms each chunk's
/// prefixes in registers, halving memory traffic versus the blocked
/// two-pass scheme of [`scan_exclusive_inplace`] and skipping its
/// block-sum allocations. Parallel runs keep the two-pass shape but use
/// the multi-accumulator sum and chunked scan kernels inside each block.
pub fn prefix_sums(a: &mut [usize]) -> usize {
    let n = a.len();
    if n == 0 {
        return 0;
    }
    let blocks = num_blocks(n, DEFAULT_GRAIN);
    if blocks <= 1 || crate::par::num_threads() <= 1 {
        return crate::kernels::exclusive_scan_usize(a, 0);
    }
    let bounds = block_bounds(n, blocks);
    let mut sums = par_blocks_collect(&bounds, |_, r| crate::kernels::sum_usize(&a[r]));
    let total = crate::kernels::exclusive_scan_usize(&mut sums, 0);
    par_blocks_mut(a, &bounds, |b, blk| {
        crate::kernels::exclusive_scan_usize(blk, sums[b]);
    });
    total
}

/// Inclusive prefix sums of `u64` values — the weight-accumulation scan.
/// Returns the total. Single-pass chunked scan when sequential,
/// kernelized blocks when parallel, like [`prefix_sums`].
pub fn scan_inclusive_u64(a: &mut [u64]) -> u64 {
    let n = a.len();
    if n == 0 {
        return 0;
    }
    let blocks = num_blocks(n, DEFAULT_GRAIN);
    if blocks <= 1 || crate::par::num_threads() <= 1 {
        return crate::kernels::inclusive_scan_u64(a, 0);
    }
    let bounds = block_bounds(n, blocks);
    let mut sums = par_blocks_collect(&bounds, |_, r| {
        a[r].iter().copied().fold(0u64, u64::wrapping_add)
    });
    let mut acc = 0u64;
    for s in sums.iter_mut() {
        let old = *s;
        *s = acc;
        acc = acc.wrapping_add(old);
    }
    let total = acc;
    par_blocks_mut(a, &bounds, |b, blk| {
        crate::kernels::inclusive_scan_u64(blk, sums[b]);
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::hash64;

    fn seq_exclusive(a: &[usize]) -> (Vec<usize>, usize) {
        let mut out = Vec::with_capacity(a.len());
        let mut acc = 0;
        for &x in a {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn exclusive_matches_sequential() {
        for n in [0usize, 1, 2, 100, 4096, 100_001] {
            let orig: Vec<usize> = (0..n).map(|i| (hash64(i as u64) % 10) as usize).collect();
            let (want, want_total) = seq_exclusive(&orig);
            let mut got = orig.clone();
            let total = prefix_sums(&mut got);
            assert_eq!(total, want_total, "n={n}");
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn inclusive_matches_sequential() {
        for n in [0usize, 1, 5, 4095, 65_537] {
            let orig: Vec<u64> = (0..n).map(|i| hash64(i as u64) % 100).collect();
            let mut want = Vec::with_capacity(n);
            let mut acc = 0u64;
            for &x in &orig {
                acc += x;
                want.push(acc);
            }
            let mut got = orig.clone();
            let total = scan_inclusive_inplace(&mut got, 0u64, |a, b| a + b);
            assert_eq!(total, acc);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn scan_with_max_operator() {
        let n = 10_000;
        let orig: Vec<u64> = (0..n).map(|i| hash64(i as u64) % 1000).collect();
        let mut got = orig.clone();
        let total = scan_exclusive_inplace(&mut got, 0u64, |a, b| a.max(b));
        assert_eq!(total, orig.iter().copied().max().unwrap());
        let mut run = 0u64;
        for i in 0..n {
            assert_eq!(got[i], run);
            run = run.max(orig[i]);
        }
    }

    /// The kernelized entry points must be byte-identical to the generic
    /// blocked scans on adversarial lengths (0, 1, lane−1, lane, lane+1,
    /// large) at every thread budget.
    #[test]
    fn kernel_scans_match_generic_scans() {
        use crate::kernels::LANES;
        let mut r = crate::rng::Rng::new(9);
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 65_537] {
            let a: Vec<usize> = (0..n).map(|_| r.index(50)).collect();
            let b: Vec<u64> = (0..n).map(|_| r.next_u64() % 50).collect();
            for threads in [1usize, 2, 8] {
                crate::par::with_threads(threads, || {
                    let (mut s, mut v) = (a.clone(), a.clone());
                    assert_eq!(
                        scan_exclusive_inplace(&mut s, 0usize, |x, y| x + y),
                        prefix_sums(&mut v),
                        "prefix total n={n} threads={threads}"
                    );
                    assert_eq!(s, v, "prefix n={n} threads={threads}");
                    let (mut s, mut v) = (b.clone(), b.clone());
                    assert_eq!(
                        scan_inclusive_inplace(&mut s, 0u64, |x, y| x + y),
                        scan_inclusive_u64(&mut v),
                        "inclusive total n={n} threads={threads}"
                    );
                    assert_eq!(s, v, "inclusive n={n} threads={threads}");
                });
            }
        }
    }

    #[test]
    fn proptest_like_randomized_sizes() {
        let mut r = crate::rng::Rng::new(31);
        for _ in 0..20 {
            let n = r.index(20_000);
            let orig: Vec<usize> = (0..n).map(|_| r.index(7)).collect();
            let (want, want_total) = seq_exclusive(&orig);
            let mut got = orig.clone();
            let total = prefix_sums(&mut got);
            assert_eq!((got, total), (want, want_total));
        }
    }
}
