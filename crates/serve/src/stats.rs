//! Service observability: lock-free counters every reader and the
//! rebuilder update in place, snapshotted into a [`StatsReport`] that
//! serializes as one flat JSON object (no deps, fixed keys), the same
//! shape as the bench harness's JSON-lines rows.

use fastbcc_core::FALLBACK_REASONS;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared atomic counters of one [`crate::service`] instance. All updates
/// are `Relaxed` — these are statistics, not synchronization; the one
/// exception is `published_version`, whose release/acquire pairing lets
/// tests assert the staleness bound (see `current_version`).
#[derive(Default)]
pub struct ServeStats {
    /// Version tag of the most recently published snapshot.
    pub(crate) published_version: AtomicU64,
    /// Snapshots published, initial snapshot included.
    pub(crate) snapshots_published: AtomicU64,
    /// Retired snapshots whose publisher reference has been released
    /// (hazard-free at some drain scan).
    pub(crate) snapshots_retired: AtomicU64,
    /// Snapshots actually dropped (its last `Arc` — publisher's or a
    /// reader's — went away). Trails `snapshots_retired` while readers
    /// still hold a retired epoch.
    pub(crate) snapshots_dropped: AtomicU64,
    /// Retired snapshots still awaiting a hazard-free scan.
    pub(crate) retire_backlog: AtomicU64,
    /// Completed rebuilds (solve + index build + publish).
    pub(crate) rebuilds: AtomicU64,
    /// Rebuilds that took the incremental `apply_batch` path end to end.
    pub(crate) rebuilds_incremental: AtomicU64,
    /// Rebuilds that ran a full solve: explicit `rebuild` calls plus every
    /// delta rebuild that fell back (see `fallbacks`).
    pub(crate) rebuilds_full: AtomicU64,
    /// Delta rebuilds that fell back to a full solve, one counter per
    /// reason, indexed by position in [`FALLBACK_REASONS`].
    pub(crate) fallbacks: [AtomicU64; FALLBACK_REASONS.len()],
    /// Edge deltas accepted by `ServiceHandle::submit_delta`.
    pub(crate) deltas_submitted: AtomicU64,
    /// Edge deltas drained and applied by `Rebuilder::rebuild_pending`.
    pub(crate) deltas_applied: AtomicU64,
    /// Wall nanoseconds of the most recent rebuild.
    pub(crate) rebuild_ns_last: AtomicU64,
    /// Cumulative wall nanoseconds across all rebuilds.
    pub(crate) rebuild_ns_total: AtomicU64,
    /// True while the rebuilder is between starting a solve and
    /// publishing its snapshot — the window the `serve` bench uses to
    /// classify "during rebuild" latency samples.
    pub(crate) rebuild_in_flight: AtomicBool,
    /// Queries answered across all readers and batches.
    pub(crate) queries_served: AtomicU64,
    /// `answer_batch` calls across all readers.
    pub(crate) batches_served: AtomicU64,
    /// Largest single batch answered.
    pub(crate) batch_size_max: AtomicU64,
}

impl ServeStats {
    /// Version of the latest published snapshot. Acquire pairs with the
    /// release store in the rebuilder's publish path: a reader that
    /// observes version `v` here is guaranteed that a subsequent
    /// [`crate::service::ServiceReader`] load returns a snapshot of
    /// version ≥ `v` — the "never stale beyond the epoch current at load
    /// time" bound the stress test pins down.
    pub fn current_version(&self) -> u64 {
        self.published_version.load(Ordering::Acquire)
    }

    /// Is a rebuild currently in flight?
    pub fn rebuild_in_flight(&self) -> bool {
        self.rebuild_in_flight.load(Ordering::Relaxed)
    }

    /// Bump the per-reason fallback counter for one delta rebuild that
    /// fell back to a full solve (`reason` is an
    /// [`fastbcc_core::ApplyReport::fallback`] string, so always one of
    /// [`FALLBACK_REASONS`]).
    pub(crate) fn note_fallback(&self, reason: &str) {
        let i = FALLBACK_REASONS
            .iter()
            .position(|&r| r == reason)
            .unwrap_or_else(|| panic!("fallback reason {reason:?} not in FALLBACK_REASONS"));
        // Relaxed counters: observability only.
        self.fallbacks[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every counter.
    pub fn report(&self) -> StatsReport {
        StatsReport {
            published_version: self.published_version.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            snapshots_retired: self.snapshots_retired.load(Ordering::Relaxed),
            snapshots_dropped: self.snapshots_dropped.load(Ordering::Relaxed),
            retire_backlog: self.retire_backlog.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            rebuilds_incremental: self.rebuilds_incremental.load(Ordering::Relaxed),
            rebuilds_full: self.rebuilds_full.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.each_ref().map(|c| c.load(Ordering::Relaxed)),
            deltas_submitted: self.deltas_submitted.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            rebuild_secs_last: self.rebuild_ns_last.load(Ordering::Relaxed) as f64 * 1e-9,
            rebuild_secs_total: self.rebuild_ns_total.load(Ordering::Relaxed) as f64 * 1e-9,
            queries_served: self.queries_served.load(Ordering::Relaxed),
            batches_served: self.batches_served.load(Ordering::Relaxed),
            batch_size_max: self.batch_size_max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServeStats`], serializable as one JSON
/// object (the per-epoch observability record of the serving layer).
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReport {
    pub published_version: u64,
    pub snapshots_published: u64,
    pub snapshots_retired: u64,
    pub snapshots_dropped: u64,
    pub retire_backlog: u64,
    pub rebuilds: u64,
    pub rebuilds_incremental: u64,
    pub rebuilds_full: u64,
    /// Fallbacks per reason, indexed by position in [`FALLBACK_REASONS`];
    /// serialized as one `fallback_<reason>` key each.
    pub fallbacks: [u64; FALLBACK_REASONS.len()],
    pub deltas_submitted: u64,
    pub deltas_applied: u64,
    pub rebuild_secs_last: f64,
    pub rebuild_secs_total: f64,
    pub queries_served: u64,
    pub batches_served: u64,
    pub batch_size_max: u64,
}

impl StatsReport {
    /// Mean batch size served so far (0.0 before the first batch).
    pub fn batch_size_mean(&self) -> f64 {
        if self.batches_served == 0 {
            0.0
        } else {
            self.queries_served as f64 / self.batches_served as f64
        }
    }

    /// Serialize as a single flat JSON object: fixed keys, no external
    /// dependencies.
    pub fn to_json(&self) -> String {
        let mut fallbacks = String::new();
        for (reason, count) in FALLBACK_REASONS.iter().zip(self.fallbacks) {
            write!(fallbacks, "\"fallback_{reason}\":{count},").expect("writing to a String");
        }
        format!(
            "{{\"published_version\":{},\"snapshots_published\":{},\
             \"snapshots_retired\":{},\"snapshots_dropped\":{},\
             \"retire_backlog\":{},\"rebuilds\":{},\
             \"rebuilds_incremental\":{},\"rebuilds_full\":{},\
             {fallbacks}\"deltas_submitted\":{},\"deltas_applied\":{},\
             \"rebuild_secs_last\":{:.9},\"rebuild_secs_total\":{:.9},\
             \"queries_served\":{},\"batches_served\":{},\
             \"batch_size_max\":{}}}",
            self.published_version,
            self.snapshots_published,
            self.snapshots_retired,
            self.snapshots_dropped,
            self.retire_backlog,
            self.rebuilds,
            self.rebuilds_incremental,
            self.rebuilds_full,
            self.deltas_submitted,
            self.deltas_applied,
            self.rebuild_secs_last,
            self.rebuild_secs_total,
            self.queries_served,
            self.batches_served,
            self.batch_size_max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let stats = ServeStats::default();
        stats.published_version.store(3, Ordering::Relaxed);
        stats.queries_served.store(1000, Ordering::Relaxed);
        stats.batches_served.store(4, Ordering::Relaxed);
        let rep = stats.report();
        assert_eq!(rep.batch_size_mean(), 250.0);
        let j = rep.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"published_version\":3"));
        assert!(j.contains("\"queries_served\":1000"));
        assert!(j.contains("\"rebuild_secs_total\":0.000000000"));
    }

    /// One fallback of each reason — reason `i` noted `i + 1` times so no
    /// two counters agree — lands on its own `fallback_<reason>` key.
    #[test]
    fn each_fallback_reason_lands_on_its_own_key() {
        let stats = ServeStats::default();
        for (i, reason) in FALLBACK_REASONS.iter().enumerate() {
            for _ in 0..=i {
                stats.note_fallback(reason);
            }
        }
        let rep = stats.report();
        assert_eq!(rep.fallbacks, [1, 2, 3, 4, 5, 6]);
        let j = rep.to_json();
        for (i, reason) in FALLBACK_REASONS.iter().enumerate() {
            let key = format!("\"fallback_{reason}\":{}", i + 1);
            assert_eq!(j.matches(&key).count(), 1, "{key} in {j}");
        }
        assert_eq!(j.matches("\"fallback_").count(), FALLBACK_REASONS.len());
    }

    #[test]
    fn mean_of_zero_batches_is_zero() {
        assert_eq!(ServeStats::default().report().batch_size_mean(), 0.0);
    }
}
