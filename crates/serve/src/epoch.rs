//! The epoch/RCU-style snapshot cell: wait-free-in-practice `Arc<T>` loads
//! for unbounded concurrent readers, atomic publication by a single
//! writer, and deferred retirement of replaced snapshots.
//!
//! This is a classic **hazard-pointer** construction specialized to one
//! protected location (the current snapshot pointer) and a fixed roster of
//! registered readers:
//!
//! * [`Reader::load`] announces the pointer it is about to adopt in its
//!   own cache-padded hazard slot, validates that the pointer is still
//!   current, bumps the `Arc` strong count, and clears the slot. No locks,
//!   no waiting on the publisher: the only retry is a re-read when a
//!   publish lands exactly between announce and validate, so a load
//!   performs at most one extra pointer read per concurrent publish —
//!   readers never block on a rebuild, however long it runs.
//! * [`Publisher::publish`] swaps the current pointer and moves the old
//!   snapshot onto a retire list. A retired snapshot's reference is
//!   released only once no hazard slot names it (at which point any reader
//!   that adopted it holds its own strong count, so the snapshot itself is
//!   freed exactly when its **last reader drops** — the epoch-retirement
//!   contract of the serving layer).
//!
//! Single-writer is enforced by ownership: [`new`] returns the one
//! (non-`Clone`) [`Publisher`]. Readers register via [`Handle::reader`],
//! which claims one of the `max_readers` hazard slots; the handle is
//! freely cloneable and slot claims are released on `Reader` drop.
//!
//! The protocol needs the store-load ordering of `SeqCst` between the
//! reader's hazard announce and the publisher's post-swap hazard scan
//! (exactly the classic hazard-pointer fence); everything else is
//! acquire/release. The unsafe surface is the raw-pointer `Arc` traffic
//! (`into_raw`/`from_raw`/`increment_strong_count`), audited like the rest
//! of the workspace by `cargo run -p xtask -- lint`.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

/// One reader's hazard slot, padded to its own cache line pair so
/// announce/clear traffic from different readers never false-shares.
#[repr(align(128))]
struct Slot<T> {
    /// The pointer this reader is currently adopting; null when idle.
    hazard: AtomicPtr<T>,
    /// Slot-roster occupancy (claimed by `Handle::reader`).
    claimed: AtomicBool,
}

impl<T> Slot<T> {
    fn empty() -> Self {
        Self {
            hazard: AtomicPtr::new(std::ptr::null_mut()),
            claimed: AtomicBool::new(false),
        }
    }
}

/// Shared state of one epoch cell.
struct Inner<T> {
    /// The published snapshot: always a live pointer produced by
    /// `Arc::into_raw`; the publisher owns the strong count it carries.
    current: AtomicPtr<T>,
    slots: Box<[Slot<T>]>,
}

// SAFETY: `Inner` shares `T` across threads only behind `Arc` semantics —
// readers obtain real `Arc<T>` clones and the publisher transfers whole
// `Arc`s through `into_raw`/`from_raw` — so `T: Send + Sync` is exactly
// the bound `Arc<T>` itself would demand of cross-thread use.
unsafe impl<T: Send + Sync> Send for Inner<T> {}
// SAFETY: as above; all mutation of the pointer/slot words is atomic.
unsafe impl<T: Send + Sync> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let p = *self.current.get_mut();
        // SAFETY: `Inner` drops only after every `Handle`, `Reader`, and
        // the `Publisher` are gone, so this thread exclusively owns the
        // publisher-side strong count `current` carries (installed by
        // `Arc::into_raw` in `new`/`publish`), and no hazard can be live.
        unsafe { drop(Arc::from_raw(p)) };
    }
}

/// Cloneable registration handle: hands out [`Reader`]s and answers
/// capacity questions. Obtained from [`new`].
pub struct Handle<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Handle<T> {
    /// Claim a hazard slot and return a reader bound to it, or `None` when
    /// all `max_readers` slots are taken.
    pub fn try_reader(&self) -> Option<Reader<T>> {
        for (i, s) in self.inner.slots.iter().enumerate() {
            // Acquire pairs with the Release in `Reader::drop`: a reclaimed
            // slot's hazard word is observed cleared before reuse.
            if s.claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Some(Reader {
                    inner: self.inner.clone(),
                    slot: i,
                    _not_sync: PhantomData,
                });
            }
        }
        None
    }

    /// [`try_reader`](Self::try_reader), panicking on slot exhaustion.
    pub fn reader(&self) -> Reader<T> {
        let cap = self.inner.slots.len();
        self.try_reader().unwrap_or_else(|| {
            panic!("epoch cell out of reader slots (max_readers = {cap}); drop an idle Reader or raise max_readers")
        })
    }

    /// Total hazard slots (the `max_readers` this cell was built with).
    pub fn max_readers(&self) -> usize {
        self.inner.slots.len()
    }

    /// Hazard slots currently claimed by live [`Reader`]s.
    pub fn registered_readers(&self) -> usize {
        self.inner
            .slots
            .iter()
            // Relaxed: an advisory gauge — a monotone-free counter read for
            // reporting, never used for synchronization.
            .filter(|s| s.claimed.load(Ordering::Relaxed))
            .count()
    }
}

/// A registered reader: one claimed hazard slot, one wait-free-in-practice
/// [`load`](Self::load). Not `Clone` (a slot admits one announcing thread)
/// and not `Sync` (the `PhantomData<Cell<()>>` marker suppresses the auto
/// impl while keeping `Send`) — a slot admits one announcing thread at a
/// time, and two threads racing `load` through a shared `&Reader` could
/// overwrite each other's hazard announce between validate and the strong
/// count bump, defeating the retirement scan. Create one `Reader` per
/// serving thread instead; they are cheap.
pub struct Reader<T> {
    inner: Arc<Inner<T>>,
    slot: usize,
    /// `Cell` is `Send + !Sync`, so this marker removes only `Sync`.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<T> Reader<T> {
    /// Adopt the current snapshot: returns an `Arc` that keeps it alive
    /// for as long as the caller holds it, regardless of how many epochs
    /// the publisher advances in the meantime. Never blocks; retries the
    /// pointer read only if a publish lands between announce and validate.
    pub fn load(&self) -> Arc<T> {
        let slot = &self.inner.slots[self.slot];
        // Acquire pairs with the publisher's swap: adopting `p` must also
        // see the snapshot `p` points at fully constructed.
        let mut p = self.inner.current.load(Ordering::Acquire);
        loop {
            // SeqCst announce + SeqCst validate: the store-load fence makes
            // the announce globally visible *before* the re-read, pairing
            // with the publisher's SeqCst swap → SeqCst hazard scan. If the
            // validate still observes `p`, the publisher's scan cannot have
            // missed this hazard and freed `p`.
            slot.hazard.store(p, Ordering::SeqCst);
            let q = self.inner.current.load(Ordering::SeqCst);
            if q == p {
                break;
            }
            p = q;
        }
        // SAFETY: the announce was validated above, so `p` is protected:
        // the publisher either has not yet retired `p` (it is still
        // current) or will observe our hazard in every retirement scan and
        // keep its strong count alive until the slot clears. Bumping the
        // count here therefore acts on a live Arc allocation.
        unsafe { Arc::increment_strong_count(p) };
        // Release: the count bump above is ordered before the hazard
        // clears — a publisher that sees the slot empty may free its own
        // reference, but ours is already in place.
        slot.hazard.store(std::ptr::null_mut(), Ordering::Release);
        // SAFETY: we own the strong count incremented just above.
        unsafe { Arc::from_raw(p) }
    }
}

// Compile-time guard for the `Reader` thread-safety contract: `Send` (a
// reader may migrate to its serving thread) but NOT `Sync` (a slot admits
// one announcing thread — see the field doc on `_not_sync`). The second
// closure compiles only while `Reader<u64>: Sync` does NOT hold: if the
// marker were ever removed, both `AmbiguousIfSync` impls would apply and
// the method resolution below turns into a compile error.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Reader<u64>>();
};
const _: fn() = || {
    trait AmbiguousIfSync<A> {
        fn some_item() {}
    }
    impl<T: ?Sized> AmbiguousIfSync<()> for T {}
    #[allow(dead_code)]
    struct IsSync;
    impl<T: ?Sized + Sync> AmbiguousIfSync<IsSync> for T {}
    let _ = <Reader<u64> as AmbiguousIfSync<_>>::some_item;
};

impl<T> Drop for Reader<T> {
    fn drop(&mut self) {
        let slot = &self.inner.slots[self.slot];
        slot.hazard.store(std::ptr::null_mut(), Ordering::Relaxed);
        // Release pairs with the Acquire claim in `try_reader`.
        slot.claimed.store(false, Ordering::Release);
    }
}

/// The cell's single writer: publishes new snapshots and retires old ones.
/// Exactly one exists per cell ([`new`] returns it by value and it is not
/// `Clone`), which is what makes the retire list plain owned state.
pub struct Publisher<T> {
    inner: Arc<Inner<T>>,
    /// Replaced snapshots whose publisher-side strong count has not been
    /// released yet because a hazard named them at the last scan.
    retired: Vec<*const T>,
}

// SAFETY: the raw pointers in `retired` are owned strong counts of
// `Arc<T>`s (produced by `Arc::into_raw`), so moving the publisher to
// another thread moves `Arc` ownership — sound for `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for Publisher<T> {}

impl<T: Send + Sync> Publisher<T> {
    /// Atomically replace the current snapshot. Readers loading during the
    /// swap obtain either the old or the new snapshot, never a mixture;
    /// the old snapshot is retired and its publisher reference released as
    /// soon as no reader is mid-adoption (its memory is freed when the
    /// last reader-held `Arc` drops). Returns the number of retired
    /// snapshots whose publisher reference was released by this call.
    pub fn publish(&mut self, next: Arc<T>) -> usize {
        let p = Arc::into_raw(next) as *mut T;
        // SeqCst swap: pairs with the readers' SeqCst announce/validate
        // (see `Reader::load`) and orders the swap before the hazard scan
        // in `try_drain` — the hazard-pointer store-load fence.
        let old = self.inner.current.swap(p, Ordering::SeqCst);
        self.retired.push(old);
        self.try_drain()
    }
}

impl<T> Publisher<T> {
    /// Release the publisher reference of every retired snapshot no hazard
    /// names. Called by [`publish`](Self::publish); callable directly to
    /// bound the backlog during publish-free stretches. Returns how many
    /// references were released.
    pub fn try_drain(&mut self) -> usize {
        let inner = &self.inner;
        let before = self.retired.len();
        self.retired.retain(|&p| {
            let hazarded = inner
                .slots
                .iter()
                // SeqCst scan: pairs with the SeqCst announce in
                // `Reader::load`; together with the SeqCst swap that
                // preceded this scan, a reader that validated `p` as
                // current is guaranteed visible here.
                .any(|s| std::ptr::eq(s.hazard.load(Ordering::SeqCst), p));
            if hazarded {
                return true;
            }
            // SAFETY: `p` was produced by `Arc::into_raw` (in `new` or
            // `publish`) and has been swapped out of `current`, so no new
            // reader can announce it; no existing hazard names it (scan
            // above, fenced against announces by SeqCst), so every reader
            // that adopted it already holds its own strong count. The
            // publisher reference is therefore exclusively ours to drop.
            unsafe { drop(Arc::from_raw(p)) };
            false
        });
        before - self.retired.len()
    }

    /// Retired snapshots still awaiting a hazard-free scan.
    pub fn retire_backlog(&self) -> usize {
        self.retired.len()
    }

    /// [`try_drain`](Self::try_drain) until the backlog is empty; returns
    /// how many references were released. A hazard window
    /// (announce→validate→bump) is a handful of instructions with no
    /// blocking inside, so this usually ends within a few spins — but the
    /// announcing thread can be descheduled mid-adoption, so after a short
    /// spin burst it yields the core back to the scheduler instead of
    /// burning it until the reader runs.
    pub fn drain_all(&mut self) -> usize {
        let mut released = 0;
        let mut rounds = 0u32;
        loop {
            released += self.try_drain();
            if self.retired.is_empty() {
                return released;
            }
            rounds += 1;
            if rounds < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl<T> Drop for Publisher<T> {
    fn drop(&mut self) {
        // Drain the backlog before the retire list disappears.
        self.drain_all();
    }
}

/// Create an epoch cell holding `initial`, with room for `max_readers`
/// concurrently registered readers. Returns the single [`Publisher`] and a
/// cloneable [`Handle`] for reader registration.
pub fn new<T: Send + Sync>(initial: Arc<T>, max_readers: usize) -> (Publisher<T>, Handle<T>) {
    assert!(
        max_readers >= 1,
        "an epoch cell needs at least one reader slot"
    );
    let slots: Box<[Slot<T>]> = (0..max_readers).map(|_| Slot::empty()).collect();
    let inner = Arc::new(Inner {
        current: AtomicPtr::new(Arc::into_raw(initial) as *mut T),
        slots,
    });
    (
        Publisher {
            inner: inner.clone(),
            retired: Vec::new(),
        },
        Handle { inner },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts drops so retirement is observable.
    struct Tracked {
        value: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn tracked(value: u64, drops: &Arc<AtomicUsize>) -> Arc<Tracked> {
        Arc::new(Tracked {
            value,
            drops: drops.clone(),
        })
    }

    #[test]
    fn load_sees_latest_publish() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut publisher, handle) = new(tracked(0, &drops), 4);
        let reader = handle.reader();
        assert_eq!(reader.load().value, 0);
        for v in 1..=5 {
            publisher.publish(tracked(v, &drops));
            assert_eq!(reader.load().value, v);
        }
    }

    #[test]
    fn replaced_snapshots_drop_once_unreferenced() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut publisher, handle) = new(tracked(0, &drops), 2);
        let reader = handle.reader();
        let held = reader.load(); // pin version 0
        publisher.publish(tracked(1, &drops));
        publisher.publish(tracked(2, &drops));
        // Versions 0 and 1 are retired; 1 has no readers and must be gone,
        // 0 survives through `held`.
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(held.value, 0);
        drop(held);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        drop(reader);
        drop(publisher);
        drop(handle);
        // The final snapshot (version 2) dies with the cell.
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn drain_all_releases_a_snapshot_once_its_hazard_clears() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut publisher, _handle) = new(tracked(0, &drops), 2);
        // A reader caught between announce and validate on version 0.
        let inner = publisher.inner.clone();
        let hazard = &inner.slots[0].hazard;
        hazard.store(inner.current.load(Ordering::SeqCst), Ordering::SeqCst);
        assert_eq!(publisher.publish(tracked(1, &drops)), 0);
        assert_eq!(publisher.retire_backlog(), 1);
        hazard.store(std::ptr::null_mut(), Ordering::SeqCst);
        assert_eq!(publisher.drain_all(), 1);
        assert_eq!(publisher.retire_backlog(), 0);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reader_slots_are_claimed_and_released() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (_publisher, handle) = new(tracked(0, &drops), 2);
        let r1 = handle.reader();
        let _r2 = handle.reader();
        assert_eq!(handle.registered_readers(), 2);
        assert!(handle.try_reader().is_none());
        drop(r1);
        assert_eq!(handle.registered_readers(), 1);
        assert!(handle.try_reader().is_some());
    }

    #[test]
    #[should_panic(expected = "out of reader slots")]
    fn reader_exhaustion_panics_with_context() {
        let (_p, handle) = new(Arc::new(7u64), 1);
        let _r = handle.reader();
        let _ = handle.reader();
    }

    #[test]
    fn concurrent_readers_across_publishes() {
        // Readers on pool workers hammer `load` while the calling thread
        // publishes; every loaded value must be a published one, and the
        // retire accounting must converge once everything drops.
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut publisher, handle) = new(tracked(0, &drops), 8);
        let publishes = 200u64;
        let stop = AtomicBool::new(false);
        let seen_max = AtomicUsize::new(0);
        let readers = 3usize;
        fastbcc_primitives::with_threads(4, || {
            rayon::join(
                || {
                    for v in 1..=publishes {
                        publisher.publish(tracked(v, &drops));
                    }
                    stop.store(true, Ordering::Release);
                },
                || {
                    let handles: Vec<_> = (0..readers).map(|_| handle.reader()).collect();
                    // Each pass loads through every reader slot; values
                    // must be monotone within one reader's consecutive
                    // loads is NOT guaranteed (no ordering across slots),
                    // but every value must be in range.
                    while !stop.load(Ordering::Acquire) {
                        for r in &handles {
                            let s = r.load();
                            assert!(s.value <= publishes);
                            seen_max.fetch_max(s.value as usize, Ordering::Relaxed);
                        }
                    }
                },
            );
        });
        drop(publisher);
        drop(handle);
        // Every snapshot ever published (including the initial one) has
        // been dropped exactly once.
        assert_eq!(drops.load(Ordering::Relaxed), publishes as usize + 1);
    }
}
