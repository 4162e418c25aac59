//! Atomic utilities: priority writes, atomic min/max, and cache-padded cells.
//!
//! The paper's model assumes a unit-cost `compare_and_swap`. The two
//! recurring patterns in the algorithms are:
//!
//! * **priority write** (`write_min` / `write_max`) — concurrent attempts to
//!   lower (raise) a memory cell; the minimum (maximum) wins. Used for tag
//!   computation (`first`, `last`, `w1`, `w2`) and deterministic hooks.
//! * **test-and-set flags** packed as bytes.
//!
//! All loops use `compare_exchange_weak` with `Relaxed` failure ordering —
//! these are pure data-value races where any interleaving converges to the
//! same fixed point, so no happens-before edges beyond the final join are
//! required (the fork–join barrier publishes results).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Atomically set `*a = min(*a, v)`. Returns `true` if this call lowered the
/// value. Lock-free; `O(1)` expected under bounded contention.
#[inline]
pub fn write_min_u32(a: &AtomicU32, v: u32) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    while v < cur {
        match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// Atomically set `*a = max(*a, v)`. Returns `true` if this call raised the
/// value.
#[inline]
pub fn write_max_u32(a: &AtomicU32, v: u32) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    while v > cur {
        match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// One-shot test-and-set: returns `true` for exactly one caller.
#[inline]
pub fn try_claim(flag: &AtomicBool) -> bool {
    !flag.load(Ordering::Relaxed)
        && flag
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
}

/// View a `&mut [u32]` as `&[AtomicU32]` for a concurrent phase.
///
/// Sound because `AtomicU32` has the same size/alignment as `u32` and the
/// exclusive borrow guarantees no non-atomic aliases exist for the duration.
#[inline]
pub fn as_atomic_u32(xs: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: same layout, and the exclusive borrow rules out non-atomic
    // aliases for the returned reference's lifetime (see doc above).
    unsafe { &*(xs as *mut [u32] as *const [AtomicU32]) }
}

/// View a `&mut [u64]` as `&[AtomicU64]` for a concurrent phase.
#[inline]
pub fn as_atomic_u64(xs: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: same argument as `as_atomic_u32` above.
    unsafe { &*(xs as *mut [u64] as *const [AtomicU64]) }
}

/// A value padded to a cache line, to keep per-thread counters from
/// false-sharing. 64-byte lines cover x86-64 and most aarch64 parts.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    pub fn new(t: T) -> Self {
        Self(t)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::par_for;

    #[test]
    fn write_min_converges_to_global_min() {
        let cell = AtomicU32::new(u32::MAX);
        par_for(100_000, |i| {
            write_min_u32(&cell, crate::rng::hash64(i as u64) as u32 | 1);
        });
        let got = cell.load(Ordering::Relaxed);
        let expect = (0..100_000u64)
            .map(|i| crate::rng::hash64(i) as u32 | 1)
            .min()
            .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn write_min_reports_improvement() {
        let cell = AtomicU32::new(10);
        assert!(!write_min_u32(&cell, 10));
        assert!(!write_min_u32(&cell, 11));
        assert!(write_min_u32(&cell, 9));
        assert_eq!(cell.load(Ordering::Relaxed), 9);
        assert!(write_max_u32(&cell, 12));
        assert!(!write_max_u32(&cell, 12));
    }

    #[test]
    fn try_claim_admits_exactly_one() {
        use std::sync::atomic::AtomicUsize;
        let flag = AtomicBool::new(false);
        let winners = AtomicUsize::new(0);
        par_for(10_000, |_| {
            if try_claim(&flag) {
                winners.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn atomic_view_roundtrip() {
        let mut xs = vec![5u32; 128];
        {
            let a = as_atomic_u32(&mut xs);
            par_for(128, |i| {
                a[i].store(i as u32, Ordering::Relaxed);
            });
        }
        assert!(xs.iter().enumerate().all(|(i, &x)| x == i as u32));

        let mut ys = vec![0u64; 16];
        {
            let a = as_atomic_u64(&mut ys);
            a[3].store(42, Ordering::Relaxed);
        }
        assert_eq!(ys[3], 42);
    }

    #[test]
    fn cache_padded_is_line_sized() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 64);
        let mut c = CachePadded::new(1u64);
        *c += 1;
        assert_eq!(*c, 2);
    }
}
