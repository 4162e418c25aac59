//! Chunked, autovectorization-friendly inner loops for the flat hot
//! primitives (scan, pack, bitmap sweep).
//!
//! Stable rustc has no `std::simd`, so these kernels get their speed from
//! shapes LLVM vectorizes (or at least pipelines) well on its own:
//! fixed-size chunks ([`LANES`]-wide inner loops with no early exits),
//! branchless predicated compaction (`pos += (x != s) as usize` instead of
//! an `if`), multi-accumulator reductions, and `u64` bit tricks
//! (`count_ones` / `trailing_zeros`) for bitmap extraction. The entry
//! points `scan::prefix_sums`, `scan::scan_inclusive_u64`,
//! `pack::pack_neq_into` and `pack::pack_bits_into` always run them.
//!
//! All kernels are exact integer code: outputs are byte-identical to the
//! generic `scan_exclusive_inplace` / `scan_inclusive_inplace` /
//! `pack_map_into` reference paths, which the equivalence tests and the
//! `primitives` microbench compare against.

/// Chunk width of the fixed-size inner loops. Eight 64-bit lanes is one
/// AVX-512 register or two AVX2 registers; it also bounds the
/// carry-recompute cost in the scan kernels.
pub const LANES: usize = 8;

/// Sum of a `usize` slice with four independent accumulators, breaking
/// the single-accumulator dependency chain so the adds pipeline.
#[inline]
pub fn sum_usize(a: &[usize]) -> usize {
    let mut acc = [0usize; 4];
    let mut chunks = a.chunks_exact(4);
    for c in chunks.by_ref() {
        acc[0] = acc[0].wrapping_add(c[0]);
        acc[1] = acc[1].wrapping_add(c[1]);
        acc[2] = acc[2].wrapping_add(c[2]);
        acc[3] = acc[3].wrapping_add(c[3]);
    }
    let mut tail = 0usize;
    for &x in chunks.remainder() {
        tail = tail.wrapping_add(x);
    }
    acc[0]
        .wrapping_add(acc[1])
        .wrapping_add(acc[2])
        .wrapping_add(acc[3])
        .wrapping_add(tail)
}

/// In-place **exclusive** `+`-scan seeded with `seed`; returns the total
/// (`seed + sum(a)`). One pass: each [`LANES`]-chunk is loaded into
/// registers, the running prefixes are formed there, and the chunk is
/// stored back — no second sweep over memory and no block-sum buffer.
#[inline]
pub fn exclusive_scan_usize(a: &mut [usize], seed: usize) -> usize {
    let mut acc = seed;
    let mut chunks = a.chunks_exact_mut(LANES);
    for c in chunks.by_ref() {
        let mut x = [0usize; LANES];
        x.copy_from_slice(c);
        c[0] = acc;
        let mut run = acc;
        for i in 1..LANES {
            run = run.wrapping_add(x[i - 1]);
            c[i] = run;
        }
        acc = run.wrapping_add(x[LANES - 1]);
    }
    for x in chunks.into_remainder() {
        let old = *x;
        *x = acc;
        acc = acc.wrapping_add(old);
    }
    acc
}

/// In-place **inclusive** `+`-scan over `u64` seeded with `seed`; returns
/// the total. Same register-resident chunk scheme as
/// [`exclusive_scan_usize`].
#[inline]
pub fn inclusive_scan_u64(a: &mut [u64], seed: u64) -> u64 {
    let mut acc = seed;
    let mut chunks = a.chunks_exact_mut(LANES);
    for c in chunks.by_ref() {
        let mut x = [0u64; LANES];
        x.copy_from_slice(c);
        let mut run = acc;
        for i in 0..LANES {
            run = run.wrapping_add(x[i]);
            c[i] = run;
        }
        acc = run;
    }
    for x in chunks.into_remainder() {
        acc = acc.wrapping_add(*x);
        *x = acc;
    }
    acc
}

/// Number of elements of `src` that differ from `sentinel` — the count
/// pass of a pack, as a branchless predicate sum LLVM can vectorize.
#[inline]
pub fn count_neq_u32(src: &[u32], sentinel: u32) -> usize {
    let mut acc = [0usize; 4];
    let mut chunks = src.chunks_exact(4);
    for c in chunks.by_ref() {
        acc[0] += (c[0] != sentinel) as usize;
        acc[1] += (c[1] != sentinel) as usize;
        acc[2] += (c[2] != sentinel) as usize;
        acc[3] += (c[3] != sentinel) as usize;
    }
    let mut tail = 0usize;
    for &x in chunks.remainder() {
        tail += (x != sentinel) as usize;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Width of the on-stack compaction buffer in [`compact_neq_u32`]: one
/// cache line's worth of chunks, small enough to stay in L1.
const COMPACT_CHUNK: usize = 64;

/// Branchless order-preserving compaction: copy every `src` element that
/// differs from `sentinel` into `out`, returning how many were written.
/// `out` must have room for at least [`count_neq_u32`] survivors.
///
/// Each chunk is compacted into an on-stack buffer with the predicated
/// `pos += (x != sentinel)` idiom — every lane writes, none branches — and
/// only the surviving prefix is copied out. The buffer absorbs the
/// one-slot overhang of predicated stores, so parallel callers writing
/// adjacent output ranges never touch a neighbor's slot.
#[inline]
pub fn compact_neq_u32(src: &[u32], sentinel: u32, out: &mut [u32]) -> usize {
    let mut pos = 0usize;
    let mut buf = [0u32; COMPACT_CHUNK];
    for chunk in src.chunks(COMPACT_CHUNK) {
        let mut c = 0usize;
        for &x in chunk {
            buf[c] = x;
            c += (x != sentinel) as usize;
        }
        out[pos..pos + c].copy_from_slice(&buf[..c]);
        pos += c;
    }
    pos
}

/// Total set bits in `words` — the count pass of a bitmap sweep.
#[inline]
pub fn popcount_words(words: &[u64]) -> usize {
    let mut acc = [0usize; 4];
    let mut chunks = words.chunks_exact(4);
    for c in chunks.by_ref() {
        acc[0] += c[0].count_ones() as usize;
        acc[1] += c[1].count_ones() as usize;
        acc[2] += c[2].count_ones() as usize;
        acc[3] += c[3].count_ones() as usize;
    }
    let mut tail = 0usize;
    for &w in chunks.remainder() {
        tail += w.count_ones() as usize;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Extract the set-bit indices of `words` (bit `i` of `words[w]` is index
/// `64 * w + i`, offset by `base`) into `out` in ascending order via
/// `trailing_zeros` / clear-lowest-bit, returning how many were written.
/// Skips zero words in one test each — the common case in sparse rounds.
/// `out` must have room for [`popcount_words`] indices.
#[inline]
pub fn expand_bits_u32(words: &[u64], base: u32, out: &mut [u32]) -> usize {
    let mut pos = 0usize;
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        let word_base = base + (w as u32) * 64;
        while bits != 0 {
            out[pos] = word_base + bits.trailing_zeros();
            pos += 1;
            bits &= bits - 1;
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The adversarial lengths every kernel must survive: empty, single,
    /// around the lane width, around the compaction chunk, and large.
    fn lengths() -> Vec<usize> {
        vec![
            0,
            1,
            LANES - 1,
            LANES,
            LANES + 1,
            COMPACT_CHUNK - 1,
            COMPACT_CHUNK,
            COMPACT_CHUNK + 1,
            10_007,
        ]
    }

    #[test]
    fn sum_matches_sequential() {
        let mut r = Rng::new(1);
        for n in lengths() {
            let a: Vec<usize> = (0..n).map(|_| r.index(1000)).collect();
            assert_eq!(sum_usize(&a), a.iter().sum::<usize>(), "n={n}");
        }
    }

    #[test]
    fn exclusive_scan_matches_sequential() {
        let mut r = Rng::new(2);
        for n in lengths() {
            let a: Vec<usize> = (0..n).map(|_| r.index(100)).collect();
            for seed in [0usize, 17] {
                let mut got = a.clone();
                let total = exclusive_scan_usize(&mut got, seed);
                let mut want = a.clone();
                let mut acc = seed;
                for x in want.iter_mut() {
                    let old = *x;
                    *x = acc;
                    acc += old;
                }
                assert_eq!(total, acc, "n={n} seed={seed}");
                assert_eq!(got, want, "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn inclusive_scan_matches_sequential() {
        let mut r = Rng::new(3);
        for n in lengths() {
            let a: Vec<u64> = (0..n).map(|_| r.next_u64() % 1000).collect();
            let mut got = a.clone();
            let total = inclusive_scan_u64(&mut got, 5);
            let mut want = a.clone();
            let mut acc = 5u64;
            for x in want.iter_mut() {
                acc += *x;
                *x = acc;
            }
            assert_eq!(total, acc, "n={n}");
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn count_and_compact_match_filter() {
        let mut r = Rng::new(4);
        const S: u32 = u32::MAX;
        for n in lengths() {
            let src: Vec<u32> = (0..n)
                .map(|_| {
                    if r.index(3) == 0 {
                        S
                    } else {
                        r.index(1 << 20) as u32
                    }
                })
                .collect();
            let want: Vec<u32> = src.iter().copied().filter(|&x| x != S).collect();
            assert_eq!(count_neq_u32(&src, S), want.len(), "n={n}");
            let mut out = vec![0u32; want.len()];
            let wrote = compact_neq_u32(&src, S, &mut out);
            assert_eq!(wrote, want.len(), "n={n}");
            assert_eq!(out, want, "n={n}");
        }
    }

    #[test]
    fn popcount_and_expand_match_bit_loop() {
        let mut r = Rng::new(5);
        for words in [0usize, 1, 2, 7, 129] {
            let ws: Vec<u64> = (0..words)
                .map(|_| if r.index(4) == 0 { 0 } else { r.next_u64() })
                .collect();
            let want: Vec<u32> = (0..words * 64)
                .filter(|&i| ws[i / 64] >> (i % 64) & 1 == 1)
                .map(|i| 100 + i as u32)
                .collect();
            assert_eq!(popcount_words(&ws), want.len(), "words={words}");
            let mut out = vec![0u32; want.len()];
            let wrote = expand_bits_u32(&ws, 100, &mut out);
            assert_eq!(wrote, want.len(), "words={words}");
            assert_eq!(out, want, "words={words}");
        }
    }
}
