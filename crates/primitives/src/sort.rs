//! Parallel stable counting sort and LSD radix sort.
//!
//! These are the integer-key sorts the paper's pipeline relies on (CSR
//! construction, semisort for the Euler tour). The counting sort is the
//! standard blocked histogram–scan–scatter: `O(n + K·B)` work (with `K`
//! buckets and `B` blocks) and `O(log n)` span; the radix sort composes
//! stable counting-sort passes over 16-bit digits.

use crate::par::{block_bounds, num_blocks, par_blocks, par_for, DEFAULT_GRAIN};
use crate::scan::prefix_sums;
use crate::slice::{reuse_uninit, UnsafeSlice};
use crate::worker_local::WorkerLocal;

/// Upper bound on `K·B` so per-block histograms stay cache-friendly.
const MAX_HIST_CELLS: usize = 1 << 24;

/// Stable parallel counting sort of `items` into `num_buckets` buckets.
///
/// Returns the sorted vector and the bucket start offsets
/// (`offsets.len() == num_buckets + 1`, `offsets[k]..offsets[k+1]` is the
/// range of bucket `k`). `key` must return values `< num_buckets`.
pub fn counting_sort_by<T, F>(items: &[T], num_buckets: usize, key: F) -> (Vec<T>, Vec<usize>)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    let mut out = Vec::new();
    let mut offsets = Vec::new();
    counting_sort_by_into(items, num_buckets, key, &mut out, &mut offsets);
    (out, offsets)
}

/// [`counting_sort_by`] writing the sorted items and the bucket offsets
/// into caller-owned buffers, reusing their capacity — the repeated-solve
/// path behind [`crate::semisort::semisort_by_small_key_into`].
pub fn counting_sort_by_into<T, F>(
    items: &[T],
    num_buckets: usize,
    key: F,
    out: &mut Vec<T>,
    offsets_out: &mut Vec<usize>,
) where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    let n = items.len();
    let k = num_buckets.max(1);
    offsets_out.clear();
    if n == 0 {
        out.clear();
        offsets_out.resize(k + 1, 0);
        return;
    }

    // Bound histogram memory: shrink block count for huge bucket counts.
    let mut blocks = num_blocks(n, DEFAULT_GRAIN);
    if blocks * k > MAX_HIST_CELLS {
        blocks = (MAX_HIST_CELLS / k).max(1);
    }
    let bounds = block_bounds(n, blocks);

    // Per-block histograms, written block-major: hist[b * k + j].
    let mut hist = vec![0usize; blocks * k];
    {
        let hview = UnsafeSlice::new(&mut hist);
        par_blocks(&bounds, |b, r| {
            // SAFETY: block `b` owns row `b*k .. (b+1)*k` exclusively.
            for item in &items[r] {
                let j = key(item);
                debug_assert!(j < k, "key {j} out of bucket range {k}");
                unsafe {
                    *hview.get_mut(b * k + j) += 1;
                }
            }
        });
    }

    // Transpose to bucket-major and scan: cursor[j * blocks + b] becomes the
    // global offset where block b writes its items of bucket j.
    let mut cursors = vec![0usize; blocks * k];
    {
        let cview = UnsafeSlice::new(&mut cursors);
        let hist_ref = &hist;
        par_for(k, |j| {
            for b in 0..blocks {
                // SAFETY: cell (j, b) is written once, by this iteration.
                unsafe { cview.write(j * blocks + b, hist_ref[b * k + j]) };
            }
        });
    }
    let total = prefix_sums(&mut cursors);
    debug_assert_eq!(total, n);

    // Bucket boundary offsets for the caller.
    offsets_out.reserve(k + 1);
    for j in 0..k {
        offsets_out.push(cursors[j * blocks]);
    }
    offsets_out.push(n);

    // Scatter, stably: each block walks its range in order, bumping local
    // copies of its cursors. The cursor copies live in per-worker arenas:
    // a worker typically scatters many blocks, so reusing one `O(k)`
    // buffer per *worker* replaces the old `O(k)` allocation per *block*
    // inside the parallel region.
    // SAFETY: every slot in 0..n is written exactly once by the scatter.
    unsafe { reuse_uninit(out, n) };
    {
        let oview = UnsafeSlice::new(out.as_mut_slice());
        let cursors_ref = &cursors;
        let local_cursors = WorkerLocal::<Vec<usize>>::default();
        par_blocks(&bounds, |b, r| {
            local_cursors.with(|local| {
                local.clear();
                local.extend((0..k).map(|j| cursors_ref[j * blocks + b]));
                for item in &items[r] {
                    let j = key(item);
                    // SAFETY: the scanned cursors give every (block,
                    // bucket) pair a disjoint output range.
                    unsafe { oview.write(local[j], *item) };
                    local[j] += 1;
                }
            });
        });
    }
}

/// Stable LSD radix sort by a `u64` key.
///
/// `max_key` bounds the key values (inclusive); only the digits needed to
/// cover it are processed. The digit width adapts to the input size: each
/// counting-sort pass pays `O(K·B)` for its histograms (K buckets, B
/// blocks), so small inputs use 8-bit digits (256 buckets) and only large
/// inputs amortize the 16-bit (65 536-bucket) passes.
pub fn radix_sort_by<T, F>(items: &[T], max_key: u64, key: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let digit_bits: u32 = match items.len() {
        0..=262_143 => 8,
        262_144..=2_097_151 => 12,
        _ => 16,
    };
    let digit_mask: u64 = (1 << digit_bits) - 1;
    let bits = 64 - max_key.leading_zeros();
    let passes = bits.div_ceil(digit_bits).max(1);
    let mut cur: Vec<T> = items.to_vec();
    for p in 0..passes {
        let shift = p * digit_bits;
        let buckets = if bits >= shift + digit_bits {
            1usize << digit_bits
        } else {
            1usize << (bits - shift).max(1)
        };
        let (next, _) =
            counting_sort_by(&cur, buckets, |t| ((key(t) >> shift) & digit_mask) as usize);
        cur = next;
    }
    cur
}

/// Compute bucket start offsets of an array already sorted by `key`
/// (CSR-style: `offsets[j]..offsets[j+1]` spans bucket `j`).
pub fn offsets_from_sorted<T, F>(sorted: &[T], num_buckets: usize, key: F) -> Vec<usize>
where
    T: Sync,
    F: Fn(&T) -> usize + Sync,
{
    let n = sorted.len();
    let k = num_buckets;
    let mut offsets = vec![usize::MAX; k + 1];
    offsets[0] = 0;
    if n > 0 {
        offsets[0] = 0;
    }
    // Mark boundaries in parallel: position i starts bucket key(i) if it
    // differs from its predecessor; buckets with no elements are filled by a
    // backward sweep.
    {
        let oview = UnsafeSlice::new(&mut offsets);
        par_for(n, |i| {
            let kj = key(&sorted[i]);
            debug_assert!(kj < k);
            if i == 0 {
                // All buckets up to and including key(0) start at 0.
            } else {
                let kp = key(&sorted[i - 1]);
                debug_assert!(kp <= kj, "input not sorted by key");
                if kp != kj {
                    // SAFETY: bucket kj has a unique first element.
                    unsafe { oview.write(kj, i) };
                }
            }
        });
    }
    offsets[k] = n;
    if n > 0 {
        let k0 = key(&sorted[0]);
        for o in offsets.iter_mut().take(k0 + 1) {
            *o = 0;
        }
    }
    // Fill empty buckets right-to-left with the next known boundary.
    // Sequential O(k): k ≤ n in all our uses.
    let mut next = n;
    for j in (0..=k).rev() {
        if offsets[j] == usize::MAX {
            offsets[j] = next;
        } else {
            next = offsets[j];
        }
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{hash64, Rng};

    #[test]
    fn counting_sort_sorts_and_offsets() {
        let n = 50_000;
        let k = 37;
        let items: Vec<u64> = (0..n).map(|i| hash64(i as u64)).collect();
        let (sorted, offsets) = counting_sort_by(&items, k, |&x| (x % k as u64) as usize);
        assert_eq!(sorted.len(), n);
        assert_eq!(offsets.len(), k + 1);
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[k], n);
        // Keys nondecreasing, offsets correct.
        for j in 0..k {
            for i in offsets[j]..offsets[j + 1] {
                assert_eq!((sorted[i] % k as u64) as usize, j);
            }
        }
        // Same multiset.
        let mut a = items.clone();
        let mut b = sorted.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn counting_sort_is_stable() {
        // Pairs (key, original index): after sorting, indices within a key
        // must stay increasing.
        let n = 30_000;
        let items: Vec<(u32, u32)> = (0..n)
            .map(|i| ((hash64(i as u64) % 11) as u32, i as u32))
            .collect();
        let (sorted, _) = counting_sort_by(&items, 11, |&(k, _)| k as usize);
        for w in sorted.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {:?}", w);
            }
        }
    }

    #[test]
    fn counting_sort_empty_and_tiny() {
        let (s, o) = counting_sort_by::<u32, _>(&[], 5, |&x| x as usize);
        assert!(s.is_empty());
        assert_eq!(o, vec![0; 6]);
        let (s, o) = counting_sort_by(&[3u32], 5, |&x| x as usize);
        assert_eq!(s, vec![3]);
        assert_eq!(o, vec![0, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn counting_sort_single_bucket() {
        let items: Vec<u32> = (0..1000).rev().collect();
        let (s, o) = counting_sort_by(&items, 1, |_| 0);
        assert_eq!(s, items); // stable: order preserved
        assert_eq!(o, vec![0, 1000]);
    }

    #[test]
    fn radix_sort_matches_std() {
        let mut r = Rng::new(9);
        for n in [0usize, 1, 2, 1000, 40_000] {
            let items: Vec<u64> = (0..n).map(|_| r.next_u64() % 1_000_000).collect();
            let got = radix_sort_by(&items, 1_000_000, |&x| x);
            let mut want = items.clone();
            want.sort_unstable();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn radix_sort_full_64bit_keys() {
        let items: Vec<u64> = (0..20_000).map(hash64).collect();
        let got = radix_sort_by(&items, u64::MAX, |&x| x);
        let mut want = items;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn radix_sort_is_stable_on_pairs() {
        let items: Vec<(u32, u32)> = (0..20_000)
            .map(|i| ((hash64(i) % 100) as u32, i as u32))
            .collect();
        let got = radix_sort_by(&items, 99, |&(k, _)| k as u64);
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn offsets_from_sorted_handles_empty_buckets() {
        // Buckets 0 and 3 empty.
        let sorted: Vec<u32> = vec![1, 1, 2, 4, 4, 4];
        let offsets = offsets_from_sorted(&sorted, 5, |&x| x as usize);
        assert_eq!(offsets, vec![0, 0, 2, 3, 3, 6]);
    }

    #[test]
    fn offsets_from_sorted_empty_input() {
        let offsets = offsets_from_sorted::<u32, _>(&[], 4, |&x| x as usize);
        assert_eq!(offsets, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn offsets_from_sorted_matches_counting_sort_offsets() {
        let mut r = Rng::new(17);
        for _ in 0..10 {
            let n = r.index(10_000);
            let k = 1 + r.index(300);
            let items: Vec<u32> = (0..n).map(|_| r.index(k) as u32).collect();
            let (sorted, offs) = counting_sort_by(&items, k, |&x| x as usize);
            let offs2 = offsets_from_sorted(&sorted, k, |&x| x as usize);
            assert_eq!(offs, offs2);
        }
    }
}
