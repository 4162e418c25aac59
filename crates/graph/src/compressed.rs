//! Block-coded compressed CSR: varint/delta adjacency (Ligra+/GBBS style).
//!
//! The flat [`Graph`] spends `4` bytes per arc plus `8` bytes per vertex.
//! On the graphs this workspace targets, consecutive neighbors of a
//! sorted adjacency list are close together, so the gap between them fits
//! in one or two bytes of a LEB128 varint — the classic Ligra+/GBBS
//! difference encoding. [`CompressedGraph`] stores, per vertex:
//!
//! * fixed-size **blocks** of [`BLOCK`] neighbors. The first entry of a
//!   block is the *signed* difference `w₀ − v` in zigzag varint form (so
//!   every block decodes independently of its predecessors); the
//!   remaining entries are plain varints of the non-negative gaps
//!   `wⱼ − wⱼ₋₁` (a gap of `0` encodes a multi-edge);
//! * when a vertex spans more than one block, a **block header** of
//!   `u32` byte offsets (one per block after the first, relative to the
//!   end of the header) in front of the payload, so a range decode can
//!   jump straight to the block covering a local index — this is what
//!   lets the edgeMap hot loops split work *inside* a high-degree
//!   vertex's list without decoding from its start.
//!
//! Two `u64` tables of length `n + 1` frame the stream: cumulative
//! degrees (`arc_offsets`, the [`CsrView`]
//! `arc_start` contract used for arc-balanced block splitting) and byte
//! offsets into the shared payload. Decoding is streaming and
//! allocation-free, so warm solves over this backend keep the engine's
//! `fresh_alloc_bytes == 0` guarantee.
//!
//! The difference encoder **relies on the sorted-adjacency invariant** of
//! [`Graph`] (see [`Graph::has_sorted_adjacency`]): gaps after the block
//! head must be non-negative to be representable.
//! [`from_graph`](CompressedGraph::from_graph) checks this and panics on
//! violation rather than encode garbage.

use crate::csr::Graph;
use crate::types::V;
use fastbcc_primitives::edgemap::CsrView;
use fastbcc_primitives::par::par_for_grain;
use fastbcc_primitives::scan::scan_inclusive_u64;
use fastbcc_primitives::slice::UnsafeSlice;

use crate::view::GraphView;

/// Neighbors per compression block. 64 keeps the per-block header cost
/// (4 bytes) under one bit per arc while bounding the sequential decode
/// a mid-list range split must pay to reach its first index.
pub const BLOCK: usize = 64;

/// A graph with varint/delta block-coded adjacency. Build with
/// [`CompressedGraph::from_graph`]; solve through the
/// [`GraphView`] impl. See the [module docs](self) for the layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedGraph {
    /// Cumulative degrees, length `n + 1` (`arc_offsets[n] == m`).
    arc_offsets: Vec<u64>,
    /// Byte offsets into `data`, length `n + 1`.
    byte_offsets: Vec<u64>,
    /// Concatenated per-vertex streams: block header, then blocks.
    data: Vec<u8>,
}

/// Append `x` as a LEB128 varint.
#[inline]
fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x != 0 {
            out.push(byte | 0x80);
        } else {
            out.push(byte);
            break;
        }
    }
}

/// Byte length of `x` as a LEB128 varint.
#[inline]
fn varint_len(x: u64) -> usize {
    (64 - x.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Decode one LEB128 varint at `*pos`, advancing it. Panics (bounds
/// check) past the end of `bytes` — validated streams never do.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Checked decode for untrusted streams: `None` on slice overrun or a
/// varint wider than a `u64`.
#[inline]
fn try_read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b & 0x7e != 0) {
            return None;
        }
        x |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
    }
}

/// Zigzag-fold a signed difference into an unsigned varint payload.
#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Number of blocks a degree-`d` list occupies.
#[inline]
fn num_blocks(d: usize) -> usize {
    d.div_ceil(BLOCK)
}

/// Header bytes in front of a degree-`d` stream.
#[inline]
fn header_len(d: usize) -> usize {
    num_blocks(d).saturating_sub(1) * 4
}

/// Encode `v`'s sorted neighbor list into `out`. Panics if a gap after a
/// block head is negative (unsorted input).
fn encode_vertex(v: V, neighbors: &[V], out: &mut Vec<u8>) {
    let d = neighbors.len();
    let nb = num_blocks(d);
    let header_at = out.len();
    // Reserve the header; block starts are back-patched as they are laid.
    out.resize(header_at + header_len(d), 0);
    let payload_at = out.len();
    for b in 0..nb {
        if b > 0 {
            let rel = (out.len() - payload_at) as u32;
            let at = header_at + (b - 1) * 4;
            out[at..at + 4].copy_from_slice(&rel.to_le_bytes());
        }
        let lo = b * BLOCK;
        let hi = d.min(lo + BLOCK);
        write_varint(out, zigzag(neighbors[lo] as i64 - v as i64));
        for j in lo + 1..hi {
            let gap = neighbors[j]
                .checked_sub(neighbors[j - 1])
                .unwrap_or_else(|| {
                    panic!(
                        "unsorted adjacency at vertex {v}: {} after {}",
                        neighbors[j],
                        neighbors[j - 1]
                    )
                });
            write_varint(out, gap as u64);
        }
    }
}

/// Exact byte length [`encode_vertex`] will produce for this list.
fn encoded_len(v: V, neighbors: &[V]) -> usize {
    let d = neighbors.len();
    let mut len = header_len(d);
    for b in 0..num_blocks(d) {
        let lo = b * BLOCK;
        let hi = d.min(lo + BLOCK);
        len += varint_len(zigzag(neighbors[lo] as i64 - v as i64));
        for j in lo + 1..hi {
            len += varint_len((neighbors[j] - neighbors[j - 1]) as u64);
        }
    }
    len
}

/// Stream neighbors of `v` at local indices `lo..hi` out of its byte
/// stream (`deg` = full degree, `bytes` = the vertex's stream). Jumps to
/// the covering block via the header, decodes it from its head, and
/// crosses block boundaries as needed.
pub(crate) fn decode_neighbors_in<F: FnMut(usize, u32)>(
    v: u32,
    deg: usize,
    bytes: &[u8],
    lo: usize,
    hi: usize,
    mut f: F,
) {
    if lo >= hi {
        return;
    }
    let hl = header_len(deg);
    let b0 = lo / BLOCK;
    let mut pos = if b0 == 0 {
        hl
    } else {
        let at = (b0 - 1) * 4;
        hl + u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize
    };
    let mut idx = b0 * BLOCK;
    let mut prev = 0u32;
    while idx < hi {
        let w = if idx.is_multiple_of(BLOCK) {
            // Block head: absolute-relative-to-v zigzag varint.
            (v as i64 + unzigzag(read_varint(bytes, &mut pos))) as u32
        } else {
            prev + read_varint(bytes, &mut pos) as u32
        };
        if idx >= lo {
            f(idx, w);
        }
        prev = w;
        idx += 1;
    }
}

/// Stream all neighbors of `v` in order until `f` returns `false`.
pub(crate) fn decode_neighbors_while<F: FnMut(u32) -> bool>(
    v: u32,
    deg: usize,
    bytes: &[u8],
    mut f: F,
) {
    let mut pos = header_len(deg);
    let mut prev = 0u32;
    for idx in 0..deg {
        let w = if idx.is_multiple_of(BLOCK) {
            (v as i64 + unzigzag(read_varint(bytes, &mut pos))) as u32
        } else {
            prev + read_varint(bytes, &mut pos) as u32
        };
        if !f(w) {
            return;
        }
        prev = w;
    }
}

/// Validate one vertex's untrusted stream: every varint in bounds, the
/// stream consumed exactly, header offsets matching real block starts,
/// ids in `0..n`, and gaps non-negative (sorted). Returns a description
/// of the first violation.
pub(crate) fn validate_vertex_stream(
    v: u32,
    deg: usize,
    bytes: &[u8],
    n: usize,
) -> Result<(), String> {
    let hl = header_len(deg);
    if bytes.len() < hl {
        return Err(format!("vertex {v}: stream shorter than its block header"));
    }
    let mut pos = hl;
    // Invariant: `prev` is only ever assigned a value already checked to
    // lie in `0..n`, so the running state cannot wrap however adversarial
    // the stream's varints are.
    let mut prev = 0u64;
    for idx in 0..deg {
        if idx % BLOCK == 0 {
            if idx > 0 {
                let b = idx / BLOCK;
                let at = (b - 1) * 4;
                let rel =
                    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
                if hl + rel as usize != pos {
                    return Err(format!(
                        "vertex {v}: header says block {b} starts at {} but it starts at {}",
                        hl + rel as usize,
                        pos
                    ));
                }
            }
            let raw = try_read_varint(bytes, &mut pos)
                .ok_or_else(|| format!("vertex {v}: varint overruns the stream"))?;
            // Reconstruct in i128: `v + unzigzag(raw)` can exceed i64 for
            // extreme heads, and the range check must see the true value.
            let w = v as i128 + unzigzag(raw) as i128;
            if w < 0 || w >= n as i128 {
                return Err(format!("vertex {v}: neighbor {w} out of range (n = {n})"));
            }
            if idx > 0 && (w as u64) < prev {
                return Err(format!("vertex {v}: block head {w} breaks sortedness"));
            }
            prev = w as u64;
        } else {
            let gap = try_read_varint(bytes, &mut pos)
                .ok_or_else(|| format!("vertex {v}: varint overruns the stream"))?;
            // Gaps stay unsigned: a huge gap must not reinterpret as a
            // negative delta that lands back inside `0..n`.
            prev = prev
                .checked_add(gap)
                .filter(|&w| w < n as u64)
                .ok_or_else(|| {
                    format!("vertex {v}: gap {gap} pushes a neighbor out of range (n = {n})")
                })?;
        }
    }
    if pos != bytes.len() {
        return Err(format!(
            "vertex {v}: {} trailing bytes after its last block",
            bytes.len() - pos
        ));
    }
    Ok(())
}

impl CompressedGraph {
    /// Compress a flat CSR graph. Panics if `g`'s neighbor lists are not
    /// sorted ascending — the invariant the difference encoder needs
    /// (cheap full check in debug builds, per-gap check always).
    pub fn from_graph(g: &Graph) -> Self {
        debug_assert!(
            g.has_sorted_adjacency(),
            "CompressedGraph::from_graph needs sorted adjacency"
        );
        let n = g.n();
        let mut arc_offsets = Vec::with_capacity(n + 1);
        arc_offsets.push(0u64);
        arc_offsets.extend(g.offsets()[1..].iter().map(|&o| o as u64));

        // Pass 1: exact per-vertex byte sizes, scanned into offsets.
        let mut byte_offsets = vec![0u64; n + 1];
        {
            let sizes = UnsafeSlice::new(&mut byte_offsets[1..]);
            par_for_grain(n, 256, |v| {
                // SAFETY: one writer per index.
                unsafe { sizes.write(v, encoded_len(v as V, g.neighbors(v as V)) as u64) };
            });
        }
        let total = scan_inclusive_u64(&mut byte_offsets[1..]) as usize;

        // Pass 2: encode each vertex into its disjoint byte range.
        let mut data = vec![0u8; total];
        {
            let out = UnsafeSlice::new(data.as_mut_slice());
            let offs: &[u64] = &byte_offsets;
            par_for_grain(n, 256, |v| {
                let (lo, hi) = (offs[v] as usize, offs[v + 1] as usize);
                let mut buf = Vec::with_capacity(hi - lo);
                encode_vertex(v as V, g.neighbors(v as V), &mut buf);
                debug_assert_eq!(buf.len(), hi - lo);
                // SAFETY: byte ranges of distinct vertices are disjoint.
                unsafe { out.slice_mut(lo, hi - lo) }.copy_from_slice(&buf);
            });
        }
        Self {
            arc_offsets,
            byte_offsets,
            data,
        }
    }

    /// Rebuild raw parts (trusted: a loader that already validated them).
    pub(crate) fn from_validated_parts(
        arc_offsets: Vec<u64>,
        byte_offsets: Vec<u64>,
        data: Vec<u8>,
    ) -> Self {
        Self {
            arc_offsets,
            byte_offsets,
            data,
        }
    }

    /// Cumulative degree table (length `n + 1`).
    pub(crate) fn arc_offsets(&self) -> &[u64] {
        &self.arc_offsets
    }

    /// Byte offset table (length `n + 1`).
    pub(crate) fn byte_offsets(&self) -> &[u64] {
        &self.byte_offsets
    }

    /// The concatenated block-coded payload.
    pub(crate) fn data(&self) -> &[u8] {
        &self.data
    }

    /// The vertex's byte stream.
    #[inline]
    fn stream(&self, v: usize) -> &[u8] {
        &self.data[self.byte_offsets[v] as usize..self.byte_offsets[v + 1] as usize]
    }

    /// Decode back into a flat [`Graph`] (tests, interop).
    pub fn decompress(&self) -> Graph {
        let n = CsrView::n(self);
        let offsets: Vec<usize> = self.arc_offsets.iter().map(|&o| o as usize).collect();
        let mut arcs = vec![0 as V; self.m_arcs()];
        {
            let out = UnsafeSlice::new(arcs.as_mut_slice());
            par_for_grain(n, 256, |v| {
                let base = self.arc_offsets[v] as usize;
                self.neighbors_in(v as u32, 0, CsrView::degree(self, v as u32), |j, w| {
                    // SAFETY: arc ranges of distinct vertices are disjoint.
                    unsafe { out.write(base + j, w) };
                });
            });
        }
        Graph::from_raw_parts(offsets, arcs)
    }
}

impl CsrView for CompressedGraph {
    #[inline]
    fn n(&self) -> usize {
        self.arc_offsets.len() - 1
    }

    #[inline]
    fn m_arcs(&self) -> usize {
        *self.arc_offsets.last().unwrap() as usize
    }

    #[inline]
    fn arc_start(&self, v: usize) -> usize {
        self.arc_offsets[v] as usize
    }

    #[inline]
    fn neighbors_in<F: FnMut(usize, u32)>(&self, v: u32, lo: usize, hi: usize, f: F) {
        decode_neighbors_in(
            v,
            CsrView::degree(self, v),
            self.stream(v as usize),
            lo,
            hi,
            f,
        );
    }

    #[inline]
    fn neighbors_while<F: FnMut(u32) -> bool>(&self, v: u32, f: F) {
        decode_neighbors_while(v, CsrView::degree(self, v), self.stream(v as usize), f);
    }
}

impl GraphView for CompressedGraph {
    fn backend_name(&self) -> &'static str {
        "compressed"
    }

    fn bytes(&self) -> usize {
        8 * (self.arc_offsets.len() + self.byte_offsets.len()) + self.data.len()
    }

    fn capacity_bytes(&self) -> usize {
        8 * (self.arc_offsets.capacity() + self.byte_offsets.capacity()) + self.data.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::*;

    fn roundtrips(g: &Graph) {
        let cg = CompressedGraph::from_graph(g);
        assert_eq!(CsrView::n(&cg), g.n());
        assert_eq!(cg.m_arcs(), g.m());
        assert_eq!(&cg.decompress(), g);
        // Range decode agrees with the flat slices on every sub-range cut.
        for v in 0..g.n() as V {
            let nbrs = g.neighbors(v);
            let d = nbrs.len();
            for (lo, hi) in [(0, d), (d / 2, d), (d / 3, 2 * d / 3), (d, d)] {
                let mut got = Vec::new();
                cg.neighbors_in(v, lo, hi, |j, w| got.push((j, w)));
                let want: Vec<_> = (lo..hi).map(|j| (j, nbrs[j])).collect();
                assert_eq!(got, want, "vertex {v} range {lo}..{hi}");
            }
            let mut stopped = Vec::new();
            cg.neighbors_while(v, |w| {
                stopped.push(w);
                stopped.len() < 3
            });
            assert_eq!(&stopped[..], &nbrs[..d.min(3)]);
        }
        // Every stream self-validates.
        for v in 0..g.n() {
            validate_vertex_stream(
                v as u32,
                CsrView::degree(&cg, v as u32),
                &cg.data()[cg.byte_offsets()[v] as usize..cg.byte_offsets()[v + 1] as usize],
                g.n(),
            )
            .unwrap();
        }
    }

    #[test]
    fn roundtrip_zoo() {
        roundtrips(&Graph::empty(0));
        roundtrips(&Graph::empty(7));
        roundtrips(&path(50));
        roundtrips(&cycle(33));
        roundtrips(&complete(40)); // degree 39: single block
        roundtrips(&complete(70)); // degree 69: two blocks, header in play
        roundtrips(&star(300)); // hub spans 5 blocks
        roundtrips(&barbell(65, 10));
        roundtrips(&windmill(21));
    }

    #[test]
    fn multi_edges_compress() {
        // Gap 0 between duplicate neighbors must survive the roundtrip.
        let g = Graph::from_raw_parts(vec![0, 2, 4], vec![1, 1, 0, 0]);
        roundtrips(&g);
    }

    #[test]
    fn compresses_below_flat_on_local_graphs() {
        let g = crate::generators::grid::grid2d(40, 40, false);
        let cg = CompressedGraph::from_graph(&g);
        assert!(
            GraphView::bytes(&cg) < GraphView::bytes(&g),
            "compressed {} >= flat {}",
            GraphView::bytes(&cg),
            GraphView::bytes(&g)
        );
    }

    #[test]
    #[should_panic(expected = "unsorted adjacency")]
    fn unsorted_input_panics_in_release_shape_too() {
        // Bypass from_graph's debug assert by encoding directly.
        let mut out = Vec::new();
        encode_vertex(0, &[5, 3], &mut out);
    }

    #[test]
    fn varint_boundaries() {
        for x in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, x);
            assert_eq!(out.len(), varint_len(x), "len of {x}");
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), x);
            assert_eq!(pos, out.len());
            let mut pos = 0;
            assert_eq!(try_read_varint(&out, &mut pos), Some(x));
        }
        // Overrun and overflow are rejected by the checked reader.
        assert_eq!(try_read_varint(&[0x80], &mut 0), None);
        assert_eq!(try_read_varint(&[0xff; 11], &mut 0), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for x in [0i64, 1, -1, 63, -64, i32::MAX as i64, -(i32::MAX as i64)] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }
}
