//! Zero-copy memory-mapped graph snapshots.
//!
//! A validated on-disk binary format (`FBCCMAP1`) holding either backend
//! of the [`GraphView`] pair — the flat CSR or
//! the block-coded [`CompressedGraph`] — laid out so a loader can `mmap`
//! the file and serve solves *directly from the page cache*: every
//! section starts 8-byte aligned, tables are little-endian `u64`/`u32`,
//! and the adjacency payload is byte-identical to the in-RAM encoding.
//! Loading allocates nothing proportional to the graph (the kernel pages
//! data in on demand), which is what makes graphs larger than RAM-resident
//! `Vec` budgets solvable at all.
//!
//! ## Layout
//!
//! ```text
//! offset  size      field
//! 0       8         magic  b"FBCCMAP1"
//! 8       4         backend: u32 (1 = flat CSR, 2 = compressed)
//! 12      4         reserved (0)
//! 16      8         n: u64
//! 24      8         m: u64 (directed arc count)
//! 32      8         payload_len: u64 (compressed data bytes; 0 for flat)
//! 40      …         sections (8-byte aligned):
//!   flat:        offsets u64[n+1] · arcs u32[m]
//!   compressed:  arc_offsets u64[n+1] · byte_offsets u64[n+1] · data u8[payload_len]
//! ```
//!
//! ## Validation
//!
//! [`load_snapshot`] treats the file as **untrusted input**, to the same
//! standard as [`crate::io::load_adjacency_text`]: magic/version/backend checks,
//! exact file-length match against checked-arithmetic section sizes
//! before anything is touched, id-space bounds, offset monotonicity with
//! the right endpoints, arc ids `< n`, and — for the compressed backend —
//! a full decode validation of every vertex stream (varint bounds, exact
//! stream consumption, block-header consistency, sortedness). Violations
//! return [`io::ErrorKind::InvalidData`]; the loader never panics or
//! aborts on malformed bytes. The one platform caveat of any mmap reader
//! remains: truncating the file *while it is mapped* raises `SIGBUS` on
//! access, so snapshots should be replaced atomically (write + rename).

use crate::compressed::{validate_vertex_stream, CompressedGraph};
use crate::csr::Graph;
use crate::view::GraphView;
use fastbcc_primitives::edgemap::{ArcCursor, CsrView};
use fastbcc_primitives::reduce::all;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"FBCCMAP1";
const HEADER_LEN: u64 = 40;
const BACKEND_FLAT: u32 = 1;
const BACKEND_COMPRESSED: u32 = 2;

/// `InvalidData` error with a formatted message.
fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(all(unix, not(miri)))]
mod sys {
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        // void *mmap(void *addr, size_t len, int prot, int flags, int fd, off_t off)
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
}

/// A read-only byte region: a real `mmap` on unix, a `u64`-aligned owned
/// buffer elsewhere (and for empty files, and under Miri — which has no
/// shim for file-backed mappings, but interprets the plain-read fallback
/// fine). Always 8-byte aligned at its base, which is what lets the
/// section slices cast to `&[u64]`/`&[u32]` without copying.
enum RegionInner {
    #[cfg(all(unix, not(miri)))]
    Mapped {
        ptr: *mut u8,
        len: usize,
    },
    Owned {
        buf: Vec<u64>,
        len: usize,
    },
}

pub(crate) struct MmapRegion(RegionInner);

// SAFETY: the region is immutable after construction (PROT_READ mapping
// or an owned buffer nothing mutates), so shared access is data-race-free.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Map (or read, on non-unix) the whole of `file`.
    fn open(file: &File, len: u64) -> io::Result<Self> {
        if len > usize::MAX as u64 {
            return Err(bad(format!("file length {len} exceeds the address space")));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Self(RegionInner::Owned {
                buf: Vec::new(),
                len: 0,
            }));
        }
        #[cfg(all(unix, not(miri)))]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: a fresh private read-only mapping of a file we hold
            // open; length is nonzero and the fd is valid. The pointer is
            // only read through `as_bytes` while `self` (which unmaps on
            // drop) is alive.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self(RegionInner::Mapped { ptr, len }))
        }
        #[cfg(any(not(unix), miri))]
        {
            use std::io::Read;
            let mut buf = vec![0u64; len.div_ceil(8)];
            // SAFETY: u64 -> u8 view of an initialized buffer.
            let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
            let mut r = io::BufReader::new(file);
            r.read_exact(bytes)?;
            Ok(Self(RegionInner::Owned { buf, len }))
        }
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            #[cfg(all(unix, not(miri)))]
            RegionInner::Mapped { ptr, len } => {
                // SAFETY: the mapping is valid for `len` bytes until drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            RegionInner::Owned { buf, len } => {
                // SAFETY: u64 -> u8 view of an initialized buffer.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.as_bytes().len()
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(all(unix, not(miri)))]
        if let RegionInner::Mapped { ptr, len } = self.0 {
            // SAFETY: exactly the region mmap returned; mapped once,
            // unmapped once.
            unsafe { sys::munmap(ptr, len) };
        }
    }
}

/// View `count` little-endian `u64`s starting at byte offset `at`.
#[inline]
fn u64s(bytes: &[u8], at: usize, count: usize) -> &[u64] {
    // SAFETY: any byte pattern is a valid u64; `at` is a multiple of 8
    // and the region base is 8-aligned (page-aligned mmap or Vec<u64>),
    // so the cast slice is fully aligned — asserted by `align_to`'s
    // empty prefix below. Little-endian layout is checked at load.
    let (pre, mid, _) = unsafe { bytes[at..at + 8 * count].align_to::<u64>() };
    debug_assert!(pre.is_empty());
    debug_assert_eq!(mid.len(), count);
    mid
}

/// View `count` little-endian `u32`s starting at byte offset `at`.
#[inline]
fn u32s(bytes: &[u8], at: usize, count: usize) -> &[u32] {
    // SAFETY: as in `u64s`; `at` is a multiple of 4.
    let (pre, mid, _) = unsafe { bytes[at..at + 4 * count].align_to::<u32>() };
    debug_assert!(pre.is_empty());
    debug_assert_eq!(mid.len(), count);
    mid
}

/// A flat CSR served straight out of a mapped snapshot.
pub struct MappedCsr {
    region: MmapRegion,
    n: usize,
    m: usize,
}

impl MappedCsr {
    #[inline]
    fn offsets(&self) -> &[u64] {
        u64s(self.region.as_bytes(), HEADER_LEN as usize, self.n + 1)
    }

    #[inline]
    fn arcs(&self) -> &[u32] {
        let at = HEADER_LEN as usize + 8 * (self.n + 1);
        u32s(self.region.as_bytes(), at, self.m)
    }

    /// Copy into an owned flat [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let offsets = self.offsets().iter().map(|&o| o as usize).collect();
        let arcs = self.arcs().to_vec();
        Graph::from_raw_parts(offsets, arcs)
    }
}

impl CsrView for MappedCsr {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn m_arcs(&self) -> usize {
        self.m
    }

    #[inline]
    fn arc_start(&self, v: usize) -> usize {
        self.offsets()[v] as usize
    }

    #[inline]
    fn neighbors_in<F: FnMut(usize, u32)>(&self, v: u32, lo: usize, hi: usize, mut f: F) {
        let base = self.offsets()[v as usize] as usize;
        for (j, &w) in self.arcs()[base + lo..base + hi].iter().enumerate() {
            f(lo + j, w);
        }
    }

    #[inline]
    fn cursor(&self, v: u32) -> ArcCursor {
        let offs = self.offsets();
        let (base, end) = (offs[v as usize] as usize, offs[v as usize + 1] as usize);
        ArcCursor::flat(base, end - base)
    }

    #[inline]
    fn next_while<F: FnMut(u32) -> bool>(&self, _v: u32, c: &mut ArcCursor, f: F) {
        c.next_flat_while(self.arcs(), f);
    }
}

impl GraphView for MappedCsr {
    fn backend_name(&self) -> &'static str {
        "flat-mmap"
    }

    fn bytes(&self) -> usize {
        self.region.len()
    }
}

/// A block-coded compressed graph served straight out of a mapped
/// snapshot (same stream layout as [`CompressedGraph`]).
pub struct MappedCompressed {
    region: MmapRegion,
    n: usize,
    m: usize,
    payload_len: usize,
}

impl MappedCompressed {
    #[inline]
    fn arc_offsets(&self) -> &[u64] {
        u64s(self.region.as_bytes(), HEADER_LEN as usize, self.n + 1)
    }

    #[inline]
    fn byte_offsets(&self) -> &[u64] {
        let at = HEADER_LEN as usize + 8 * (self.n + 1);
        u64s(self.region.as_bytes(), at, self.n + 1)
    }

    #[inline]
    fn data(&self) -> &[u8] {
        let at = HEADER_LEN as usize + 16 * (self.n + 1);
        &self.region.as_bytes()[at..at + self.payload_len]
    }

    #[inline]
    fn stream(&self, v: usize) -> &[u8] {
        let offs = self.byte_offsets();
        &self.data()[offs[v] as usize..offs[v + 1] as usize]
    }

    /// Copy into an owned [`CompressedGraph`].
    pub fn to_compressed(&self) -> CompressedGraph {
        CompressedGraph::from_validated_parts(
            self.arc_offsets().to_vec(),
            self.byte_offsets().to_vec(),
            self.data().to_vec(),
        )
    }
}

impl CsrView for MappedCompressed {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn m_arcs(&self) -> usize {
        self.m
    }

    #[inline]
    fn arc_start(&self, v: usize) -> usize {
        self.arc_offsets()[v] as usize
    }

    #[inline]
    fn neighbors_in<F: FnMut(usize, u32)>(&self, v: u32, lo: usize, hi: usize, f: F) {
        crate::compressed::decode_neighbors_in(
            v,
            CsrView::degree(self, v),
            self.stream(v as usize),
            lo,
            hi,
            f,
        );
    }

    #[inline]
    fn cursor(&self, v: u32) -> ArcCursor {
        let start = self.byte_offsets()[v as usize] as usize;
        crate::compressed::start_cursor(CsrView::degree(self, v), start)
    }

    #[inline]
    fn next_while<F: FnMut(u32) -> bool>(&self, v: u32, c: &mut ArcCursor, f: F) {
        crate::compressed::decode_next_while(v, self.data(), c, f);
    }
}

impl GraphView for MappedCompressed {
    fn backend_name(&self) -> &'static str {
        "compressed-mmap"
    }

    fn bytes(&self) -> usize {
        self.region.len()
    }
}

/// Either backend, loaded zero-copy from a snapshot file. Implements
/// [`GraphView`] by per-call dispatch (one branch per *call*, not per
/// neighbor); match on the variant to monomorphize a whole solve instead.
pub enum MappedGraph {
    Flat(MappedCsr),
    Compressed(MappedCompressed),
}

macro_rules! dispatch {
    ($self:ident, $g:ident => $e:expr) => {
        match $self {
            MappedGraph::Flat($g) => $e,
            MappedGraph::Compressed($g) => $e,
        }
    };
}

impl CsrView for MappedGraph {
    #[inline]
    fn n(&self) -> usize {
        dispatch!(self, g => CsrView::n(g))
    }

    #[inline]
    fn m_arcs(&self) -> usize {
        dispatch!(self, g => g.m_arcs())
    }

    #[inline]
    fn arc_start(&self, v: usize) -> usize {
        dispatch!(self, g => g.arc_start(v))
    }

    #[inline]
    fn neighbors_in<F: FnMut(usize, u32)>(&self, v: u32, lo: usize, hi: usize, f: F) {
        dispatch!(self, g => g.neighbors_in(v, lo, hi, f))
    }

    #[inline]
    fn cursor(&self, v: u32) -> ArcCursor {
        dispatch!(self, g => g.cursor(v))
    }

    #[inline]
    fn next_while<F: FnMut(u32) -> bool>(&self, v: u32, c: &mut ArcCursor, f: F) {
        dispatch!(self, g => g.next_while(v, c, f))
    }
}

impl GraphView for MappedGraph {
    fn backend_name(&self) -> &'static str {
        dispatch!(self, g => g.backend_name())
    }

    fn bytes(&self) -> usize {
        dispatch!(self, g => GraphView::bytes(g))
    }
}

fn write_header(w: &mut impl Write, backend: u32, n: u64, m: u64, payload: u64) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&backend.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    w.write_all(&payload.to_le_bytes())
}

/// Write `g` as a flat-CSR snapshot (see the [module docs](self) layout).
pub fn save_snapshot(g: &Graph, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_header(&mut w, BACKEND_FLAT, g.n() as u64, g.m() as u64, 0)?;
    for &o in g.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &a in g.arcs() {
        w.write_all(&a.to_le_bytes())?;
    }
    w.flush()
}

/// Write `cg` as a compressed snapshot (see the [module docs](self) layout).
pub fn save_snapshot_compressed(cg: &CompressedGraph, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let n = CsrView::n(cg) as u64;
    let m = cg.m_arcs() as u64;
    write_header(&mut w, BACKEND_COMPRESSED, n, m, cg.data().len() as u64)?;
    for &o in cg.arc_offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &o in cg.byte_offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    w.write_all(cg.data())?;
    w.flush()
}

/// Map a snapshot written by [`save_snapshot`] /
/// [`save_snapshot_compressed`] and validate it fully (see the [module
/// docs](self)); the returned [`MappedGraph`] serves solves zero-copy.
pub fn load_snapshot(path: &Path) -> io::Result<MappedGraph> {
    if cfg!(target_endian = "big") {
        // The zero-copy table casts below read the file's little-endian
        // layout verbatim.
        return Err(bad("zero-copy snapshots require a little-endian host"));
    }
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN {
        return Err(bad(format!("file length {file_len} below the header size")));
    }
    let region = MmapRegion::open(&file, file_len)?;
    let bytes = region.as_bytes();
    if &bytes[..8] != MAGIC {
        return Err(bad("bad magic"));
    }
    let backend = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let reserved = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if reserved != 0 {
        return Err(bad(format!("reserved header field is {reserved}, not 0")));
    }
    let n64 = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let m64 = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let payload64 = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    if n64 >= u32::MAX as u64 {
        return Err(bad(format!("vertex count {n64} exceeds the u32 id space")));
    }
    if m64 > usize::MAX as u64 / 8 || payload64 > usize::MAX as u64 / 8 {
        return Err(bad("section size exceeds the address space"));
    }
    let tables = |k: u64| (n64 + 1).checked_mul(k);
    let want_len = match backend {
        BACKEND_FLAT => {
            if payload64 != 0 {
                return Err(bad("flat snapshot with nonzero payload length"));
            }
            tables(8)
                .and_then(|t| m64.checked_mul(4).and_then(|a| t.checked_add(a)))
                .and_then(|b| b.checked_add(HEADER_LEN))
        }
        BACKEND_COMPRESSED => tables(16)
            .and_then(|t| t.checked_add(payload64))
            .and_then(|b| b.checked_add(HEADER_LEN)),
        other => return Err(bad(format!("unknown backend tag {other}"))),
    }
    .ok_or_else(|| bad("header sizes overflow"))?;
    if want_len != file_len {
        return Err(bad(format!(
            "file length {file_len} does not match header (need {want_len})"
        )));
    }
    let (n, m) = (n64 as usize, m64 as usize);

    // Offsets table checks shared by both backends: starts at 0, monotone
    // (parallel), ends at the section length.
    let check_offsets = |offs: &[u64], end: u64, what: &str| -> io::Result<()> {
        if offs[0] != 0 {
            return Err(bad(format!("first {what} is {}, expected 0", offs[0])));
        }
        if offs[n] != end {
            return Err(bad(format!("last {what} {} != {end}", offs[n])));
        }
        if !all(n, |i| offs[i] <= offs[i + 1]) {
            let i = (0..n).find(|&i| offs[i] > offs[i + 1]).unwrap();
            return Err(bad(format!(
                "{what} {} at index {} decreases (< {})",
                offs[i + 1],
                i + 1,
                offs[i]
            )));
        }
        Ok(())
    };

    match backend {
        BACKEND_FLAT => {
            let g = MappedCsr { region, n, m };
            check_offsets(g.offsets(), m64, "offset")?;
            let arcs = g.arcs();
            if !all(m, |i| (arcs[i] as u64) < n64) {
                let i = (0..m).find(|&i| arcs[i] as u64 >= n64).unwrap();
                return Err(bad(format!(
                    "arc {} at index {i} out of range (n = {n})",
                    arcs[i]
                )));
            }
            Ok(MappedGraph::Flat(g))
        }
        _ => {
            let g = MappedCompressed {
                region,
                n,
                m,
                payload_len: payload64 as usize,
            };
            check_offsets(g.arc_offsets(), m64, "arc offset")?;
            check_offsets(g.byte_offsets(), payload64, "byte offset")?;
            // Full decode validation of every stream, parallel with a
            // sequential second pass for the first failure's message.
            let valid = |v: usize| {
                validate_vertex_stream(v as u32, CsrView::degree(&g, v as u32), g.stream(v), n)
            };
            if !all(n, |v| valid(v).is_ok()) {
                let msg = (0..n).find_map(|v| valid(v).err()).unwrap();
                return Err(bad(msg));
            }
            Ok(MappedGraph::Compressed(g))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fastbcc_mmap_test_{name}_{}", std::process::id()));
        p
    }

    fn decode_all<G: GraphView>(g: &G) -> (Vec<usize>, Vec<u32>) {
        let mut offsets = vec![0usize];
        let mut arcs = Vec::new();
        for v in 0..g.n() as u32 {
            g.for_neighbors(v, |w| arcs.push(w));
            offsets.push(arcs.len());
        }
        (offsets, arcs)
    }

    #[test]
    fn flat_snapshot_roundtrip() {
        let g = barbell(40, 7);
        let p = tmp("flat");
        save_snapshot(&g, &p).unwrap();
        let mg = load_snapshot(&p).unwrap();
        assert_eq!(mg.backend_name(), "flat-mmap");
        assert_eq!(CsrView::n(&mg), g.n());
        assert_eq!(mg.m_arcs(), g.m());
        let (offs, arcs) = decode_all(&mg);
        assert_eq!(offs, g.offsets());
        assert_eq!(arcs, g.arcs());
        match &mg {
            MappedGraph::Flat(f) => assert_eq!(&f.to_graph(), &g),
            _ => unreachable!(),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn compressed_snapshot_roundtrip() {
        let g = windmill(17);
        let cg = CompressedGraph::from_graph(&g);
        let p = tmp("comp");
        save_snapshot_compressed(&cg, &p).unwrap();
        let mg = load_snapshot(&p).unwrap();
        assert_eq!(mg.backend_name(), "compressed-mmap");
        let (offs, arcs) = decode_all(&mg);
        assert_eq!(offs, g.offsets());
        assert_eq!(arcs, g.arcs());
        match &mg {
            MappedGraph::Compressed(c) => assert_eq!(c.to_compressed(), cg),
            _ => unreachable!(),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_graph_snapshots() {
        for n in [0usize, 5] {
            let g = Graph::empty(n);
            let p = tmp(&format!("empty{n}"));
            save_snapshot(&g, &p).unwrap();
            let mg = load_snapshot(&p).unwrap();
            assert_eq!(CsrView::n(&mg), n);
            assert_eq!(mg.m_arcs(), 0);
            save_snapshot_compressed(&CompressedGraph::from_graph(&g), &p).unwrap();
            let mg = load_snapshot(&p).unwrap();
            assert_eq!(CsrView::n(&mg), n);
            std::fs::remove_file(&p).ok();
        }
    }
}
