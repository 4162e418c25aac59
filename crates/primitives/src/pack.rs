//! Parallel filter/pack: `O(n)` work, `O(log n)` span.
//!
//! Pack compacts the elements (or indices) satisfying a predicate into a
//! dense output array, preserving order. It is the standard
//! count–scan–scatter composition: per-block counts, an exclusive scan for
//! block offsets, then a parallel scatter of survivors into their slots.
//! Used throughout the repo for frontier compaction, edge filtering, and
//! extracting fence edges / articulation points.

use crate::par::{block_bounds, num_blocks, par_blocks_collect, par_blocks_mut, DEFAULT_GRAIN};
use crate::scan::prefix_sums;
use std::ops::Range;

/// Output ranges of a blocked pack: with `count(r)` survivors in input
/// block `r`, returns `offsets` of length `blocks + 1` such that block `b`
/// owns output slots `offsets[b]..offsets[b + 1]` (`offsets[blocks]` is
/// the total).
fn block_offsets(bounds: &[usize], count: impl Fn(Range<usize>) -> usize + Sync) -> Vec<usize> {
    let mut offsets = par_blocks_collect(bounds, |_, r| count(r));
    offsets.push(0);
    prefix_sums(&mut offsets);
    offsets
}

/// Pack `f(i)` for every `i` in `0..n` with `keep(i)`, preserving index order.
///
/// **`keep` must be pure**: it is evaluated twice per index (once to count,
/// once to scatter) and must return the same answer both times; a
/// side-effecting or racy predicate desynchronizes the two passes and
/// leaves uninitialized output slots.
pub fn pack_map<T, K, F>(n: usize, keep: K, f: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    K: Fn(usize) -> bool + Sync,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::new();
    pack_map_extend(n, keep, f, &mut out);
    out
}

/// [`pack_map`] into a caller-provided buffer, reusing its allocation.
/// The buffer is cleared first; on return it holds exactly the survivors.
pub fn pack_map_into<T, K, F>(n: usize, keep: K, f: F, out: &mut Vec<T>)
where
    T: Copy + Send + Sync,
    K: Fn(usize) -> bool + Sync,
    F: Fn(usize) -> T + Sync,
{
    out.clear();
    pack_map_extend(n, keep, f, out);
}

/// [`pack_map`] *appending* the survivors to `out` (existing contents are
/// kept). Lets callers compact several sources into one buffer — the
/// hash-bag drain packs each chunk in turn — without a staging vector per
/// source.
pub fn pack_map_extend<T, K, F>(n: usize, keep: K, f: F, out: &mut Vec<T>)
where
    T: Copy + Send + Sync,
    K: Fn(usize) -> bool + Sync,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return;
    }
    let bounds = block_bounds(n, num_blocks(n, DEFAULT_GRAIN));
    let offsets = block_offsets(&bounds, |r| r.filter(|&i| keep(i)).count());
    let base = out.len();
    // SAFETY: the scatter below writes every appended slot exactly once:
    // block `b` fills `offsets[b]..offsets[b + 1]` of the appended tail.
    unsafe { crate::slice::extend_uninit(out, offsets[offsets.len() - 1]) };
    par_blocks_mut(&mut out[base..], &offsets, |b, dst| {
        let mut pos = 0;
        for i in bounds[b]..bounds[b + 1] {
            if keep(i) {
                dst[pos] = f(i);
                pos += 1;
            }
        }
    });
}

/// Pack the elements of `src` that differ from `sentinel` into `out`
/// (cleared first), preserving order — the frontier-compaction shape of
/// `edgemap`'s sparse rounds, where `sentinel` is the `EMPTY` slot marker.
/// Branchless chunked compaction via [`crate::kernels::compact_neq_u32`];
/// the output equals the generic [`pack_map_into`] with a `!= sentinel`
/// predicate.
///
/// Sequential runs count with one branchless predicate-sum sweep, then
/// compact in one pass — no offsets buffer, no scan machinery, and the
/// output is sized to exactly the survivor count (the capacity behavior
/// the workspace envelope tests pin).
/// Parallel runs count per block, scan the offsets, then compact each
/// block into its disjoint output range through the kernels' on-stack
/// chunk buffer (which absorbs the predicated stores' one-slot overhang,
/// so no block touches its neighbor's slots).
pub fn pack_neq_into(src: &[u32], sentinel: u32, out: &mut Vec<u32>) {
    use crate::kernels::{compact_neq_u32, count_neq_u32};
    let n = src.len();
    out.clear();
    if n == 0 {
        return;
    }
    let blocks = num_blocks(n, DEFAULT_GRAIN);
    if blocks <= 1 || crate::par::num_threads() <= 1 {
        let kept = count_neq_u32(src, sentinel);
        // SAFETY: `compact_neq_u32` writes exactly `kept` slots.
        unsafe { crate::slice::reuse_uninit(out, kept) };
        let wrote = compact_neq_u32(src, sentinel, out.as_mut_slice());
        debug_assert_eq!(wrote, kept);
        return;
    }
    let bounds = block_bounds(n, blocks);
    let offsets = block_offsets(&bounds, |r| count_neq_u32(&src[r], sentinel));
    // SAFETY: the per-block compactions below write the disjoint ranges
    // `offsets[b]..offsets[b+1]`, which tile `0..offsets[blocks]` exactly.
    unsafe { crate::slice::reuse_uninit(out, offsets[blocks]) };
    par_blocks_mut(out, &offsets, |b, dst| {
        let kept = compact_neq_u32(&src[bounds[b]..bounds[b + 1]], sentinel, dst);
        debug_assert_eq!(kept, dst.len());
    });
}

/// Pack the set-bit indices of a bitmap (`n` logical bits across `words`)
/// into `out` (cleared first), ascending — the claimed-vertex sweep of
/// `edgemap`'s dense rounds. Bits at or past `n` must be zero.
///
/// Per-block `popcnt` counts, an offsets scan, then `trailing_zeros`
/// extraction — 64 bits per load instead of one, skipping zero words in a
/// single test. The output equals the generic [`pack_map_into`] with a
/// test-the-bit predicate.
pub fn pack_bits_into(words: &[u64], n: usize, out: &mut Vec<u32>) {
    use crate::kernels::{expand_bits_u32, popcount_words};
    debug_assert!(words.len() * 64 >= n);
    out.clear();
    if n == 0 {
        return;
    }
    let nw = n.div_ceil(64);
    let words = &words[..nw];
    // Blocks of whole words, so extraction never splits a word.
    let word_grain = DEFAULT_GRAIN.div_ceil(64).max(1);
    let blocks = num_blocks(nw, word_grain);
    if blocks <= 1 || crate::par::num_threads() <= 1 {
        let total = popcount_words(words);
        // SAFETY: `expand_bits_u32` writes exactly `total` slots.
        unsafe { crate::slice::reuse_uninit(out, total) };
        let wrote = expand_bits_u32(words, 0, out.as_mut_slice());
        debug_assert_eq!(wrote, total);
        return;
    }
    let bounds = block_bounds(nw, blocks);
    let offsets = block_offsets(&bounds, |r| popcount_words(&words[r]));
    // SAFETY: per-block extractions write the disjoint ranges
    // `offsets[b]..offsets[b+1]`, tiling `0..offsets[blocks]`.
    unsafe { crate::slice::reuse_uninit(out, offsets[blocks]) };
    par_blocks_mut(out, &offsets, |b, dst| {
        let (lo, hi) = (bounds[b], bounds[b + 1]);
        let wrote = expand_bits_u32(&words[lo..hi], (lo * 64) as u32, dst);
        debug_assert_eq!(wrote, dst.len());
    });
}

/// Indices in `0..n` satisfying `keep`, in increasing order.
pub fn pack_index<K: Fn(usize) -> bool + Sync>(n: usize, keep: K) -> Vec<u32> {
    debug_assert!(n <= u32::MAX as usize);
    pack_map(n, &keep, |i| i as u32)
}

/// [`pack_index`] into a caller-provided buffer, reusing its allocation.
pub fn pack_index_into<K: Fn(usize) -> bool + Sync>(n: usize, keep: K, out: &mut Vec<u32>) {
    debug_assert!(n <= u32::MAX as usize);
    pack_map_into(n, &keep, |i| i as u32, out);
}

/// Indices in `0..n` satisfying `keep`, as `usize`.
pub fn pack_index_usize<K: Fn(usize) -> bool + Sync>(n: usize, keep: K) -> Vec<usize> {
    pack_map(n, &keep, |i| i)
}

/// Pack the elements of `xs` satisfying the per-element predicate.
pub fn filter_slice<T, P>(xs: &[T], pred: P) -> Vec<T>
where
    T: Copy + Send + Sync,
    P: Fn(&T) -> bool + Sync,
{
    pack_map(xs.len(), |i| pred(&xs[i]), |i| xs[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::hash64;

    #[test]
    fn pack_index_matches_sequential() {
        for n in [0usize, 1, 100, 4096, 50_000] {
            let got = pack_index(n, |i| hash64(i as u64).is_multiple_of(3));
            let want: Vec<u32> = (0..n)
                .filter(|&i| hash64(i as u64).is_multiple_of(3))
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn pack_all_and_none() {
        let all = pack_index(1000, |_| true);
        assert_eq!(all.len(), 1000);
        assert!(all.iter().enumerate().all(|(i, &x)| x == i as u32));
        let none = pack_index(1000, |_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn pack_map_extend_appends_in_order() {
        let mut out: Vec<u32> = vec![999];
        pack_map_extend(10_000, |i| i % 3 == 0, |i| i as u32, &mut out);
        pack_map_extend(0, |_| true, |i| i as u32, &mut out);
        pack_map_extend(100, |i| i >= 98, |i| i as u32, &mut out);
        let mut want = vec![999u32];
        want.extend((0..10_000u32).filter(|i| i % 3 == 0));
        want.extend([98, 99]);
        assert_eq!(out, want);
    }

    #[test]
    fn filter_slice_preserves_order() {
        let xs: Vec<u64> = (0..30_000).map(hash64).collect();
        let got = filter_slice(&xs, |&x| x % 2 == 0);
        let want: Vec<u64> = xs.iter().copied().filter(|&x| x % 2 == 0).collect();
        assert_eq!(got, want);
    }

    /// The kernelized packs must be byte-identical (values *and*
    /// resulting buffer length) to the generic [`pack_map_into`] on
    /// adversarial lengths at every thread budget.
    #[test]
    fn kernel_packs_match_generic_pack() {
        use crate::kernels::LANES;
        let mut r = crate::rng::Rng::new(42);
        const S: u32 = u32::MAX;
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 63, 64, 65, 50_000] {
            let src: Vec<u32> = (0..n)
                .map(|_| {
                    if r.index(3) == 0 {
                        S
                    } else {
                        r.index(1 << 20) as u32
                    }
                })
                .collect();
            let words = n.div_ceil(64).max(1);
            let mut bits = vec![0u64; words];
            for v in 0..n {
                if r.index(2) == 0 {
                    bits[v / 64] |= 1 << (v % 64);
                }
            }
            for threads in [1usize, 2, 8] {
                crate::par::with_threads(threads, || {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    pack_map_into(n, |i| src[i] != S, |i| src[i], &mut a);
                    pack_neq_into(&src, S, &mut b);
                    assert_eq!(a, b, "pack_neq n={n} threads={threads}");
                    let bit = |v: usize| bits[v / 64] >> (v % 64) & 1 == 1;
                    pack_map_into(n, bit, |v| v as u32, &mut a);
                    pack_bits_into(&bits, n, &mut b);
                    assert_eq!(a, b, "pack_bits n={n} threads={threads}");
                });
            }
        }
    }

    #[test]
    fn randomized_against_sequential() {
        let mut r = crate::rng::Rng::new(77);
        for _ in 0..10 {
            let n = r.index(30_000);
            let data: Vec<u64> = (0..n).map(|_| r.next_u64() % 100).collect();
            let got = filter_slice(&data, |&x| x < 50);
            let want: Vec<u64> = data.iter().copied().filter(|&x| x < 50).collect();
            assert_eq!(got, want);
        }
    }
}
