//! Auxiliary-space accounting (for the Fig. 7 experiment).
//!
//! The paper's space claim — `O(n)` auxiliary memory beyond the input
//! graph — is an *algorithmic* property; we make it measurable by having
//! every phase register the byte size of the auxiliary structures it keeps
//! live. The tracker records the running total and the peak, which is the
//! number Fig. 7 compares across FAST-BCC / GBBS-style / Tarjan–Vishkin.
//!
//! With the scratch-pooled engine the tracker lives inside the
//! [`crate::engine::Workspace`] and additionally distinguishes *live*
//! bytes (what the algorithm holds, identical run over run) from *fresh*
//! bytes (capacity the workspace actually had to grow this solve). A
//! repeated solve on a same-shaped input reports `fresh() == 0`: every
//! major array was served from the pooled buffers.

/// The linear budget a warm engine's reserved workspace must fit:
/// ~170 bytes/vertex of `O(n)` phase arrays plus the `O(m/20)` edgeMap
/// claim-slot buffer, with headroom (observed suite maximum ≈ 208·n
/// with m ≈ n). `m_undirected` is the undirected edge count. This is
/// the single source of truth for the space-regression gate: the
/// `bench-smoke` runner assertion and `tests/frontier_space.rs` call
/// it, and the CI python gate in `.github/workflows/ci.yml` mirrors it
/// by hand (keep the three in sync through this function).
pub fn workspace_budget_bytes(n: usize, m_undirected: usize) -> usize {
    200 * n + 8 * m_undirected + (1 << 16)
}

/// The budget a [`crate::query::BccIndex`] over an `n`-vertex solve must
/// fit: four `O(n)` vertex tables, the forest/tour tables (block-cut
/// forest nodes ≤ 2n, tour length t ≤ 4n), and the blocked arg-RMQ's
/// `O(t + (t/B) log(t/B))` summary — linear up to the summary's log
/// factor, with headroom. The `queries` benchmark emits it next to the
/// measured `index_bytes` so the CI gate compares two fields of one
/// record (keep the gate and this function in sync).
pub fn query_index_budget_bytes(n: usize) -> usize {
    let t = 4 * n;
    let lg = (usize::BITS - t.max(2).leading_zeros()) as usize;
    128 * n + (t / 8) * lg + (1 << 16)
}

/// Running/peak byte counter for auxiliary allocations, plus a per-solve
/// fresh-allocation counter for buffer-reuse verification.
#[derive(Debug, Default, Clone)]
pub struct SpaceTracker {
    live: usize,
    peak: usize,
    fresh: usize,
}

impl SpaceTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new measurement epoch (one engine solve): live/peak/fresh
    /// all restart at zero while the underlying buffers stay pooled.
    pub fn begin_solve(&mut self) {
        self.live = 0;
        self.peak = 0;
        self.fresh = 0;
    }

    /// Record bytes of buffer capacity that had to be newly allocated (or
    /// grown) during this epoch.
    pub fn note_fresh(&mut self, bytes: usize) {
        self.fresh += bytes;
    }

    /// Newly allocated capacity bytes in the current epoch — 0 when every
    /// major array was reused from the workspace pool.
    pub fn fresh(&self) -> usize {
        self.fresh
    }

    /// Register `bytes` of live auxiliary memory.
    pub fn alloc(&mut self, bytes: usize) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }

    /// Register that `bytes` were released.
    pub fn free(&mut self, bytes: usize) {
        debug_assert!(bytes <= self.live, "freeing more than live");
        self.live = self.live.saturating_sub(bytes);
    }

    /// Currently live auxiliary bytes.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak auxiliary bytes seen so far.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut t = SpaceTracker::new();
        t.alloc(100);
        t.alloc(50);
        assert_eq!(t.live(), 150);
        assert_eq!(t.peak(), 150);
        t.free(120);
        assert_eq!(t.live(), 30);
        assert_eq!(t.peak(), 150);
        t.alloc(40);
        assert_eq!(t.peak(), 150);
        t.alloc(200);
        assert_eq!(t.peak(), 270);
    }
}
