//! The always-on serving surface: [`start`] a service on an initial graph,
//! hand the [`Rebuilder`] to a background thread, and let any number of
//! [`ServiceReader`]s answer query batches against the current snapshot
//! while the next graph version is being solved.
//!
//! ```text
//!          readers (wait-free snapshot loads, batched admission)
//!   ──────▶ ServiceReader::answer_batch / submit ──▶ ServedBatch{version, answers}
//!                          │ epoch::Reader::load (hazard-pointer adopt)
//!                          ▼
//!                 Arc<Snapshot { version, BccIndex }>
//!                          ▲
//!                          │ epoch::Publisher::publish (atomic swap + retire)
//!   ──────▶ Rebuilder::rebuild(next graph) — pooled BccEngine solve,
//!           build_index_versioned, publish; old snapshot freed when its
//!           last reader drops
//! ```
//!
//! Guarantees (gated by `tests/serve_stress.rs` in the facade crate):
//!
//! * **Readers never block on a rebuild.** A batch adopts one snapshot via
//!   a hazard-pointer load (no locks anywhere on the read path) and runs
//!   entirely against it.
//! * **No torn or mixed batches.** Every answer in a [`ServedBatch`] comes
//!   from the single immutable snapshot whose version tags the batch.
//! * **Bounded staleness.** A batch's version is never older than the
//!   version [`ServeStats::current_version`] returned before the load.
//! * **Retirement.** A replaced snapshot's memory is released when its
//!   last reader drops it; the service counts published/retired/dropped
//!   snapshots so leaks are observable.

use crate::epoch;
use crate::stats::ServeStats;
use fastbcc_core::query::{Query, QueryAnswer, QueryScratch};
use fastbcc_core::{BccEngine, BccIndex, BccOpts};
use fastbcc_graph::{Graph, GraphDelta, GraphView, V};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Hazard-slot roster size: the maximum number of concurrently
    /// registered [`ServiceReader`]s.
    pub max_readers: usize,
    /// Batched-admission flush threshold: [`ServiceReader::submit`] groups
    /// queries until this many are pending, then answers them in one
    /// `answer_batch` call. Also pre-sizes each reader's scratch so even
    /// its first batch allocates nothing.
    pub batch_capacity: usize,
    /// Solver options for every rebuild.
    pub bcc: BccOpts,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            max_readers: 64,
            batch_capacity: 4096,
            bcc: BccOpts::default(),
        }
    }
}

/// One immutable graph version: the query index plus identifying metadata.
/// Always handled as `Arc<Snapshot>`; dropping the last `Arc` is what the
/// `snapshots_dropped` counter observes.
pub struct Snapshot {
    /// Graph-version tag (also stamped on `index`): 1 for the initial
    /// snapshot, +1 per publish.
    pub version: u64,
    /// Vertex count of the snapshot's graph.
    pub n: usize,
    /// Undirected edge count of the snapshot's graph.
    pub m: usize,
    /// The read-only query index.
    pub index: BccIndex,
    stats: Arc<ServeStats>,
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Relaxed counter: observability only.
        self.stats.snapshots_dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Cloneable entry point: registers readers and exposes the service's
/// observability counters.
#[derive(Clone)]
pub struct ServiceHandle {
    cell: epoch::Handle<Snapshot>,
    stats: Arc<ServeStats>,
    batch_capacity: usize,
    deltas: mpsc::Sender<GraphDelta>,
}

impl ServiceHandle {
    /// Register a reader (claims one hazard slot; released on drop). Its
    /// scratch and admission buffer are pre-sized to `batch_capacity`, so
    /// batches up to that size never allocate — not even the first.
    pub fn reader(&self) -> ServiceReader {
        ServiceReader {
            reader: self.cell.reader(),
            scratch: QueryScratch::with_capacity(self.batch_capacity),
            pending: Vec::with_capacity(self.batch_capacity),
            serving: Vec::with_capacity(self.batch_capacity),
            batch_capacity: self.batch_capacity,
            stats: self.stats.clone(),
        }
    }

    /// The service's shared counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// An owned reference to the counters that outlives the service —
    /// e.g. for asserting final retirement accounting after every handle,
    /// reader, and the rebuilder have been dropped.
    pub fn stats_handle(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// Snapshot the counters (JSON-serializable).
    pub fn stats_report(&self) -> crate::stats::StatsReport {
        self.stats.report()
    }

    /// Version of the latest published snapshot (see
    /// [`ServeStats::current_version`] for the ordering guarantee).
    pub fn current_version(&self) -> u64 {
        self.stats.current_version()
    }

    /// Queue an edge batch for the rebuilder. The delta is applied (and a
    /// new snapshot version published) at the rebuilder's next
    /// [`Rebuilder::rebuild_pending`] call; readers keep answering against
    /// the current snapshot until then. Returns the delta back if the
    /// rebuilder has been dropped.
    pub fn submit_delta(&self, delta: GraphDelta) -> Result<(), GraphDelta> {
        match self.deltas.send(delta) {
            Ok(()) => {
                // Relaxed counter: observability only.
                self.stats.deltas_submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(mpsc::SendError(delta)) => Err(delta),
        }
    }
}

/// Per-version answer batch: every answer was computed against the single
/// snapshot identified by `version`.
pub struct ServedBatch<'a> {
    /// Version of the snapshot that answered the batch.
    pub version: u64,
    /// Answers, positionally matching the submitted queries.
    pub answers: &'a [QueryAnswer],
}

/// A registered reader: wait-free snapshot adoption plus a pooled scratch
/// and an admission buffer. `Send` but not `Sync` (inherited from
/// [`epoch::Reader`]: a hazard slot admits one announcing thread, so even
/// the `&self` [`snapshot`](Self::snapshot) must not race from two
/// threads) — create one per serving thread via
/// [`ServiceHandle::reader`]; they are cheap.
pub struct ServiceReader {
    reader: epoch::Reader<Snapshot>,
    scratch: QueryScratch,
    pending: Vec<Query>,
    serving: Vec<Query>,
    batch_capacity: usize,
    stats: Arc<ServeStats>,
}

// Compile-time guard mirroring `epoch::Reader`'s: the hazard-slot
// single-announcer contract must hold through the high-level API too, so
// `ServiceReader` is `Send` (move it to its serving thread) but must never
// become `Sync` (the second closure stops compiling if it does).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ServiceReader>();
};
const _: fn() = || {
    trait AmbiguousIfSync<A> {
        fn some_item() {}
    }
    impl<T: ?Sized> AmbiguousIfSync<()> for T {}
    #[allow(dead_code)]
    struct IsSync;
    impl<T: ?Sized + Sync> AmbiguousIfSync<IsSync> for T {}
    let _ = <ServiceReader as AmbiguousIfSync<_>>::some_item;
};

impl ServiceReader {
    /// Adopt the current snapshot and answer `queries` against it in one
    /// parallel batch. Never blocks on a rebuild; the returned batch is
    /// tagged with the adopted snapshot's version and is internally
    /// consistent with exactly that graph version.
    pub fn answer_batch(&mut self, queries: &[Query]) -> ServedBatch<'_> {
        let snap = self.reader.load();
        self.note_served(queries.len());
        let answers = snap.index.answer_batch(queries, &mut self.scratch);
        ServedBatch {
            version: snap.version,
            answers,
        }
    }

    /// Adopt the current snapshot without answering anything — for callers
    /// that want direct [`BccIndex`] access pinned to one version.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.reader.load()
    }

    /// Batched admission: enqueue one query; when `batch_capacity` are
    /// pending, answer them all in one batch and return it. Queries keep
    /// their submission order within the flushed batch.
    pub fn submit(&mut self, q: Query) -> Option<ServedBatch<'_>> {
        self.pending.push(q);
        if self.pending.len() >= self.batch_capacity {
            self.flush()
        } else {
            None
        }
    }

    /// Answer every pending submitted query now (e.g. at the end of an
    /// admission tick); `None` when nothing is pending.
    pub fn flush(&mut self) -> Option<ServedBatch<'_>> {
        if self.pending.is_empty() {
            return None;
        }
        // Swap the pending queries into the serving buffer so the borrow
        // of `self.serving` (queries) and `self.scratch` (answers) are
        // disjoint fields; both keep their capacity across flushes.
        std::mem::swap(&mut self.pending, &mut self.serving);
        self.pending.clear();
        let snap = self.reader.load();
        self.note_served(self.serving.len());
        let answers = snap.index.answer_batch(&self.serving, &mut self.scratch);
        Some(ServedBatch {
            version: snap.version,
            answers,
        })
    }

    /// Queries admitted but not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Scratch capacity newly allocated by the most recent batch — 0 for
    /// every batch no larger than the reader's `batch_capacity` (and for
    /// any batch no larger than the largest served so far).
    pub fn fresh_alloc_bytes(&self) -> usize {
        self.scratch.fresh_alloc_bytes()
    }

    fn note_served(&self, len: usize) {
        // Relaxed counters: observability only.
        self.stats
            .queries_served
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats.batches_served.fetch_add(1, Ordering::Relaxed);
        self.stats
            .batch_size_max
            .fetch_max(len as u64, Ordering::Relaxed);
    }
}

/// What one [`Rebuilder::rebuild`] did.
#[derive(Clone, Copy, Debug)]
pub struct RebuildReport {
    /// Version tag of the snapshot this rebuild published.
    pub version: u64,
    /// Wall time of the whole rebuild (solve + index build + publish).
    pub total: Duration,
    /// Wall time of the BCC solve alone.
    pub solve: Duration,
    /// Heap bytes of the published index.
    pub index_bytes: usize,
    /// Retired snapshots whose publisher reference this publish released.
    pub retired_now: usize,
    /// Did this rebuild take the incremental `apply_batch` path end to
    /// end? Always `false` for [`Rebuilder::rebuild`]; for delta rebuilds,
    /// `false` means at least one batch fell back to a full solve.
    pub incremental: bool,
    /// Why the incremental path was abandoned (the last
    /// [`fastbcc_core::ApplyReport::fallback`] reason observed), if it was.
    pub fallback: Option<&'static str>,
}

/// The service's single background solver: owns the pooled [`BccEngine`]
/// and the epoch cell's [`epoch::Publisher`]. Run it wherever you like —
/// it is `Send`, and nothing it does blocks the readers.
pub struct Rebuilder {
    publisher: epoch::Publisher<Snapshot>,
    engine: BccEngine,
    stats: Arc<ServeStats>,
    next_version: u64,
    delta_rx: mpsc::Receiver<GraphDelta>,
}

impl Rebuilder {
    /// Solve `g` from scratch, build its index, and atomically publish it
    /// as the next snapshot version. Warm rebuilds reuse every pooled
    /// engine buffer (same zero-fresh-allocation discipline as `BccEngine`
    /// itself), and the engine stays attached to `g` so subsequent
    /// [`rebuild_delta`](Self::rebuild_delta) calls evolve it in place.
    pub fn rebuild(&mut self, g: &Graph) -> RebuildReport {
        // Relaxed flag: advisory "rebuild window" marker for latency
        // classification, not synchronization.
        self.stats.rebuild_in_flight.store(true, Ordering::Relaxed);
        let t0 = Instant::now();
        self.engine.attach(g);
        let solve = t0.elapsed();
        self.finish_rebuild(t0, solve, false, None, g.n(), g.m_undirected())
    }

    /// [`rebuild`](Self::rebuild) over any [`GraphView`] backend — a
    /// [`fastbcc_graph::CompressedGraph`] or an mmap-backed
    /// [`fastbcc_graph::MappedGraph`] snapshot loaded with
    /// [`fastbcc_graph::load_snapshot`]. Solves through the engine's
    /// pooled view path and publishes exactly like `rebuild`.
    ///
    /// Because the engine does not own the view, this path is
    /// **static-snapshot serving**: the engine's batch-dynamic graph is
    /// detached, so subsequent [`rebuild_delta`](Self::rebuild_delta) /
    /// [`rebuild_pending`](Self::rebuild_pending) calls panic until a
    /// flat-`Graph` [`rebuild`](Self::rebuild) re-attaches one. Serve
    /// deltas from flat rebuilds; serve immutable mmap/compressed
    /// snapshots from this.
    pub fn rebuild_view<G: GraphView>(&mut self, g: &G) -> RebuildReport {
        // Relaxed flag: advisory marker, as in `rebuild`.
        self.stats.rebuild_in_flight.store(true, Ordering::Relaxed);
        let t0 = Instant::now();
        self.engine.solve_view(g);
        let solve = t0.elapsed();
        self.finish_rebuild(t0, solve, false, None, g.n(), g.m_undirected())
    }

    /// Apply an edge batch to the attached graph with the incremental
    /// solver and publish the updated result as the next snapshot version.
    /// Falls back to a warm full solve inside `apply_batch` when the batch
    /// is not incrementally tractable (see the returned report's
    /// [`fallback`](RebuildReport::fallback) and the service's
    /// per-reason fallback counters); either way the published snapshot is
    /// exact.
    pub fn rebuild_delta(&mut self, adds: &[(V, V)], dels: &[(V, V)]) -> RebuildReport {
        // Relaxed flag: advisory marker, as in `rebuild`.
        self.stats.rebuild_in_flight.store(true, Ordering::Relaxed);
        let t0 = Instant::now();
        self.engine.apply_batch(adds, dels);
        let solve = t0.elapsed();
        let rep = self
            .engine
            .last_apply_report()
            .expect("apply_batch sets a report");
        if let Some(reason) = rep.fallback {
            self.stats.note_fallback(reason);
        }
        let (n, m) = self.attached_shape();
        self.finish_rebuild(t0, solve, rep.incremental, rep.fallback, n, m)
    }

    /// Drain every delta queued via [`ServiceHandle::submit_delta`], apply
    /// them in submission order, and publish one snapshot covering them
    /// all. Returns `None` (and publishes nothing) when the queue is
    /// empty — the idle branch of a rebuilder loop.
    pub fn rebuild_pending(&mut self) -> Option<RebuildReport> {
        let mut applied = 0u64;
        let mut incremental = true;
        let mut fallback = None;
        let mut t0 = Instant::now();
        let mut solve = Duration::ZERO;
        while let Ok(d) = self.delta_rx.try_recv() {
            if applied == 0 {
                // Relaxed flag: advisory marker, as in `rebuild`.
                self.stats.rebuild_in_flight.store(true, Ordering::Relaxed);
                t0 = Instant::now();
            }
            self.engine.apply_batch(&d.adds, &d.dels);
            solve = t0.elapsed();
            let rep = self
                .engine
                .last_apply_report()
                .expect("apply_batch sets a report");
            incremental &= rep.incremental;
            if let Some(reason) = rep.fallback {
                fallback = Some(reason);
                self.stats.note_fallback(reason);
            }
            applied += 1;
        }
        if applied == 0 {
            return None;
        }
        // Relaxed counter: observability only.
        self.stats
            .deltas_applied
            .fetch_add(applied, Ordering::Relaxed);
        let (n, m) = self.attached_shape();
        Some(self.finish_rebuild(t0, solve, incremental, fallback, n, m))
    }

    /// Shape of the engine's attached batch-dynamic graph — the delta
    /// rebuild paths read it after `apply_batch` has evolved the CSR.
    fn attached_shape(&self) -> (usize, usize) {
        let g = self
            .engine
            .graph()
            .expect("delta rebuild paths leave a graph attached");
        (g.n(), g.m_undirected())
    }

    /// Shared publish tail: index the engine's current result, publish it
    /// as the next version, and update every counter. `n`/`m` are the
    /// solved graph's shape, passed explicitly because view rebuilds
    /// leave no graph attached to the engine.
    fn finish_rebuild(
        &mut self,
        t0: Instant,
        solve: Duration,
        incremental: bool,
        fallback: Option<&'static str>,
        n: usize,
        m: usize,
    ) -> RebuildReport {
        let version = self.next_version;
        let index = self.engine.build_index_versioned(version);
        let index_bytes = index.bytes();
        let snapshot = Snapshot {
            version,
            n,
            m,
            index,
            stats: self.stats.clone(),
        };
        let retired_now = self.publisher.publish(Arc::new(snapshot));
        let total = t0.elapsed();
        self.next_version += 1;

        let stats = &self.stats;
        stats.snapshots_published.fetch_add(1, Ordering::Relaxed);
        stats
            .snapshots_retired
            .fetch_add(retired_now as u64, Ordering::Relaxed);
        stats
            .retire_backlog
            .store(self.publisher.retire_backlog() as u64, Ordering::Relaxed);
        stats.rebuilds.fetch_add(1, Ordering::Relaxed);
        if incremental {
            stats.rebuilds_incremental.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.rebuilds_full.fetch_add(1, Ordering::Relaxed);
        }
        stats
            .rebuild_ns_last
            .store(total.as_nanos() as u64, Ordering::Relaxed);
        stats
            .rebuild_ns_total
            .fetch_add(total.as_nanos() as u64, Ordering::Relaxed);
        stats.rebuild_in_flight.store(false, Ordering::Relaxed);
        // Release store: pairs with the Acquire in
        // `ServeStats::current_version` — a reader that observes version
        // `v` there is ordered after this publish, so its next snapshot
        // load returns version ≥ v (the staleness bound).
        stats.published_version.store(version, Ordering::Release);

        RebuildReport {
            version,
            total,
            solve,
            index_bytes,
            retired_now,
            incremental,
            fallback,
        }
    }

    /// Release retired snapshots that have become hazard-free since the
    /// last publish; returns how many. Useful during long publish-free
    /// stretches; otherwise every `rebuild` drains as it publishes.
    pub fn reclaim(&mut self) -> usize {
        let freed = self.publisher.try_drain();
        let stats = &self.stats;
        stats
            .snapshots_retired
            .fetch_add(freed as u64, Ordering::Relaxed);
        stats
            .retire_backlog
            .store(self.publisher.retire_backlog() as u64, Ordering::Relaxed);
        freed
    }

    /// The pooled engine (e.g. for workspace space inspection).
    pub fn engine(&self) -> &BccEngine {
        &self.engine
    }
}

impl Drop for Rebuilder {
    /// Drain the retire list before the publisher goes, so the stats show
    /// the drain: `snapshots_retired` counts every released snapshot and
    /// `retire_backlog` reads 0 once the rebuilder is gone.
    fn drop(&mut self) {
        let freed = self.publisher.drain_all();
        let stats = &self.stats;
        stats
            .snapshots_retired
            .fetch_add(freed as u64, Ordering::Relaxed);
        stats.retire_backlog.store(0, Ordering::Relaxed);
    }
}

/// Solve `g` once, publish it as snapshot version 1, and return the
/// service's two halves: the cloneable [`ServiceHandle`] (readers,
/// observability) and the single [`Rebuilder`] (background publishes).
pub fn start(g: &Graph, opts: ServeOpts) -> (ServiceHandle, Rebuilder) {
    let stats = Arc::new(ServeStats::default());
    let mut engine = BccEngine::new(opts.bcc);
    // Attach (not just solve) so delta rebuilds can evolve the graph
    // in place from the very first snapshot.
    engine.attach(g);
    let index = engine.build_index_versioned(1);
    let snapshot = Snapshot {
        version: 1,
        n: g.n(),
        m: g.m_undirected(),
        index,
        stats: stats.clone(),
    };
    let (publisher, cell) = epoch::new(Arc::new(snapshot), opts.max_readers);
    let (delta_tx, delta_rx) = mpsc::channel();
    stats.snapshots_published.store(1, Ordering::Relaxed);
    // Release: same published_version protocol as `Rebuilder::rebuild`.
    stats.published_version.store(1, Ordering::Release);
    (
        ServiceHandle {
            cell,
            stats: stats.clone(),
            batch_capacity: opts.batch_capacity.max(1),
            deltas: delta_tx,
        },
        Rebuilder {
            publisher,
            engine,
            stats,
            next_version: 2,
            delta_rx,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_core::query::random_mixed_batch;
    use fastbcc_graph::generators::classic::{cycle, path, windmill};

    #[test]
    fn serves_and_swaps_versions() {
        let (handle, mut rebuilder) = start(&path(9), ServeOpts::default());
        let mut reader = handle.reader();
        // path(9): every interior vertex is an articulation point.
        let b = reader.answer_batch(&[Query::IsArticulation(4), Query::SameBcc(0, 1)]);
        assert_eq!(b.version, 1);
        assert_eq!(
            b.answers,
            &[QueryAnswer::Bool(true), QueryAnswer::Bool(true)]
        );

        let rep = rebuilder.rebuild(&cycle(9));
        assert_eq!(rep.version, 2);
        // cycle(9): no articulation points, everything one BCC.
        let b = reader.answer_batch(&[Query::IsArticulation(4), Query::SameBcc(0, 5)]);
        assert_eq!(b.version, 2);
        assert_eq!(
            b.answers,
            &[QueryAnswer::Bool(false), QueryAnswer::Bool(true)]
        );
        assert_eq!(handle.current_version(), 2);
    }

    #[test]
    fn pinned_snapshot_survives_publishes() {
        let (handle, mut rebuilder) = start(&windmill(4), ServeOpts::default());
        let reader = handle.reader();
        let pinned = reader.snapshot();
        assert_eq!(pinned.version, 1);
        assert!(pinned.index.is_articulation(0));
        for _ in 0..3 {
            rebuilder.rebuild(&cycle(9));
        }
        // The pinned snapshot still answers as version 1's graph.
        assert!(pinned.index.is_articulation(0));
        assert_eq!(handle.current_version(), 4);
        let rep = handle.stats_report();
        assert_eq!(rep.snapshots_published, 4);
        // Versions 2 and 3 are fully gone; version 1 is pinned.
        assert_eq!(rep.snapshots_dropped, 2);
        drop(pinned);
        drop(reader);
        rebuilder.reclaim();
        assert_eq!(handle.stats_report().snapshots_dropped, 3);
    }

    #[test]
    fn batched_admission_flushes_at_capacity() {
        let opts = ServeOpts {
            batch_capacity: 4,
            ..Default::default()
        };
        let (handle, _rebuilder) = start(&path(6), opts);
        let mut reader = handle.reader();
        assert!(reader.submit(Query::SameBcc(0, 1)).is_none());
        assert!(reader.submit(Query::IsArticulation(1)).is_none());
        assert!(reader.submit(Query::IsBridge(2, 3)).is_none());
        let b = reader
            .submit(Query::CutVerticesOnPath(0, 5))
            .expect("flush at capacity");
        assert_eq!(b.version, 1);
        assert_eq!(
            b.answers,
            &[
                QueryAnswer::Bool(true),
                QueryAnswer::Bool(true),
                QueryAnswer::Bool(true),
                QueryAnswer::Count(Some(4)),
            ]
        );
        assert_eq!(reader.pending(), 0);
        assert!(reader.flush().is_none());
        // Partial fill flushes on demand.
        reader.submit(Query::SameBcc(0, 5));
        let b = reader.flush().expect("partial flush");
        assert_eq!(b.answers, &[QueryAnswer::Bool(false)]);
    }

    #[test]
    fn warm_batches_allocate_nothing() {
        let opts = ServeOpts {
            batch_capacity: 512,
            ..Default::default()
        };
        let (handle, mut rebuilder) = start(&windmill(16), opts);
        let mut reader = handle.reader();
        let queries = random_mixed_batch(33, 512, 0xEB0C);
        for round in 0..4 {
            reader.answer_batch(&queries);
            assert_eq!(
                reader.fresh_alloc_bytes(),
                0,
                "batch in round {round} allocated (pre-sized scratch)"
            );
            rebuilder.rebuild(&windmill(16));
        }
        let rep = handle.stats_report();
        assert_eq!(rep.queries_served, 4 * 512);
        assert_eq!(rep.batches_served, 4);
        assert_eq!(rep.batch_size_max, 512);
        assert!(rep.rebuild_secs_total >= rep.rebuild_secs_last);
    }

    #[test]
    fn delta_rebuilds_publish_incremental_versions() {
        let (handle, mut rebuilder) = start(&cycle(12), ServeOpts::default());
        let mut reader = handle.reader();
        assert!(rebuilder.rebuild_pending().is_none(), "empty queue is idle");

        // Cut one cycle edge: vertices interior to the remaining path
        // become articulation points.
        handle
            .submit_delta(GraphDelta::from_slices(&[], &[(0, 11)]))
            .unwrap();
        let rep = rebuilder.rebuild_pending().expect("one queued delta");
        assert_eq!(rep.version, 2);
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        let b = reader.answer_batch(&[Query::IsArticulation(5), Query::IsBridge(0, 1)]);
        assert_eq!(b.version, 2);
        assert_eq!(
            b.answers,
            &[QueryAnswer::Bool(true), QueryAnswer::Bool(true)]
        );

        // Re-close the cycle through the direct API.
        let rep = rebuilder.rebuild_delta(&[(0, 11)], &[]);
        assert_eq!(rep.version, 3);
        assert!(rep.incremental, "fell back: {:?}", rep.fallback);
        let b = reader.answer_batch(&[Query::IsArticulation(5), Query::SameBcc(0, 6)]);
        assert_eq!(b.version, 3);
        assert_eq!(
            b.answers,
            &[QueryAnswer::Bool(false), QueryAnswer::Bool(true)]
        );

        let stats = handle.stats_report();
        assert_eq!(stats.rebuilds, 2);
        assert_eq!(stats.rebuilds_incremental, 2);
        assert_eq!(stats.rebuilds_full, 0);
        assert_eq!(stats.deltas_submitted, 1);
        assert_eq!(stats.deltas_applied, 1);
    }

    #[test]
    fn queued_deltas_coalesce_into_one_publish() {
        let (handle, mut rebuilder) = start(&cycle(16), ServeOpts::default());
        for k in 0..3 {
            handle
                .submit_delta(GraphDelta::from_slices(&[(0, 4 + k)], &[]))
                .unwrap();
        }
        let rep = rebuilder.rebuild_pending().expect("queued deltas");
        // Three deltas, one snapshot.
        assert_eq!(rep.version, 2);
        assert_eq!(handle.current_version(), 2);
        let stats = handle.stats_report();
        assert_eq!(stats.deltas_submitted, 3);
        assert_eq!(stats.deltas_applied, 3);
        assert_eq!(stats.rebuilds, 1);
    }

    #[test]
    fn untractable_deltas_fall_back_and_are_counted() {
        let (handle, mut rebuilder) = start(&cycle(20), ServeOpts::default());
        // Delete half the cycle in one batch: way past the churn
        // threshold, so the engine re-solves from scratch — but the
        // published snapshot is exact either way.
        let dels: Vec<(V, V)> = (0..10).map(|i| (i, i + 1)).collect();
        let rep = rebuilder.rebuild_delta(&[], &dels);
        assert!(!rep.incremental);
        assert_eq!(rep.fallback, Some(fastbcc_core::dynamic::FB_CHURN));
        let mut reader = handle.reader();
        let b = reader.answer_batch(&[Query::IsArticulation(15), Query::SameBcc(0, 1)]);
        assert_eq!(b.version, 2);
        assert_eq!(
            b.answers,
            &[QueryAnswer::Bool(true), QueryAnswer::Bool(false)]
        );

        let stats = handle.stats_report();
        assert_eq!(stats.rebuilds_full, 1);
        assert_eq!(stats.fallbacks, [1, 0, 0, 0, 0, 0]);
        let json = stats.to_json();
        assert!(json.contains("\"rebuilds_incremental\":0"));
        assert!(json.contains("\"fallback_churn\":1"));
    }

    #[test]
    fn submit_delta_after_rebuilder_drop_returns_the_delta() {
        let (handle, rebuilder) = start(&path(4), ServeOpts::default());
        drop(rebuilder);
        let d = GraphDelta::from_slices(&[(0, 3)], &[]);
        let d = handle.submit_delta(d).expect_err("rebuilder gone");
        assert_eq!(d.adds, vec![(0, 3)]);
        assert_eq!(handle.stats_report().deltas_submitted, 0);
    }

    #[test]
    fn rebuild_view_publishes_from_compressed_and_mapped_backends() {
        let (handle, mut rebuilder) = start(&path(9), ServeOpts::default());
        let mut reader = handle.reader();

        let cg = fastbcc_graph::CompressedGraph::from_graph(&cycle(9));
        let rep = rebuilder.rebuild_view(&cg);
        assert_eq!(rep.version, 2);
        let b = reader.answer_batch(&[Query::IsArticulation(4), Query::SameBcc(0, 5)]);
        assert_eq!(b.version, 2);
        assert_eq!(
            b.answers,
            &[QueryAnswer::Bool(false), QueryAnswer::Bool(true)]
        );

        let dir = std::env::temp_dir().join(format!("fastbcc-serve-view-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("wind.fbcc");
        fastbcc_graph::save_snapshot(&windmill(4), &file).unwrap();
        let mg = fastbcc_graph::load_snapshot(&file).unwrap();
        let rep = rebuilder.rebuild_view(&mg);
        assert_eq!(rep.version, 3);
        let b = reader.answer_batch(&[Query::IsArticulation(0), Query::SameBcc(1, 2)]);
        assert_eq!(
            b.answers,
            &[QueryAnswer::Bool(true), QueryAnswer::Bool(true)]
        );
        std::fs::remove_dir_all(&dir).ok();

        // A flat rebuild re-attaches; delta serving works again after it.
        rebuilder.rebuild(&cycle(12));
        let rep = rebuilder.rebuild_delta(&[], &[(0, 11)]);
        assert_eq!(rep.version, 5);
    }

    #[test]
    #[should_panic(expected = "attach")]
    fn delta_rebuild_after_view_rebuild_panics() {
        let (_handle, mut rebuilder) = start(&cycle(8), ServeOpts::default());
        let cg = fastbcc_graph::CompressedGraph::from_graph(&cycle(8));
        rebuilder.rebuild_view(&cg);
        // The view solve detached the batch-dynamic graph: evolving a
        // stale CSR must be a loud error, not a silent wrong answer.
        rebuilder.rebuild_delta(&[(0, 4)], &[]);
    }

    #[test]
    fn stats_track_retirement() {
        let (handle, mut rebuilder) = start(&path(5), ServeOpts::default());
        for _ in 0..5 {
            rebuilder.rebuild(&path(5));
        }
        let rep = handle.stats_report();
        assert_eq!(rep.published_version, 6);
        assert_eq!(rep.snapshots_published, 6);
        // No readers: every replaced snapshot drains immediately.
        assert_eq!(rep.snapshots_retired, 5);
        assert_eq!(rep.snapshots_dropped, 5);
        assert_eq!(rep.retire_backlog, 0);
        assert_eq!(rep.rebuilds, 5);
    }

    #[test]
    fn dropping_the_rebuilder_clears_the_retire_backlog_gauge() {
        let (handle, mut rebuilder) = start(&path(5), ServeOpts::default());
        rebuilder.rebuild(&path(5));
        // The gauge a publish leaves when a reader still hazards the
        // snapshot it replaced; the drop's drain must overwrite it.
        rebuilder.stats.retire_backlog.store(1, Ordering::Relaxed);
        drop(rebuilder);
        let rep = handle.stats_report();
        assert_eq!(rep.retire_backlog, 0);
        assert_eq!(rep.snapshots_retired, 1);
    }
}
