//! Regression tests: malformed graph files must come back as
//! `Err(InvalidData)` — never a panic, never an abort from an
//! attacker-sized pre-reservation, never a silently corrupt `Graph`.
//! Covers the adjacency-text format and the mmap snapshot format
//! (`FBCCMAP1`, both backends).

use fastbcc_graph::generators::classic::{barbell, cycle, windmill};
use fastbcc_graph::io::{load_adjacency_text, save_adjacency_text};
use fastbcc_graph::{load_snapshot, save_snapshot, save_snapshot_compressed, CompressedGraph};
use std::io::ErrorKind;
use std::path::PathBuf;

struct TmpFile(PathBuf);

impl TmpFile {
    fn write(name: &str, bytes: &[u8]) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "fastbcc_io_malformed_{name}_{}",
            std::process::id()
        ));
        std::fs::write(&p, bytes).unwrap();
        Self(p)
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn assert_invalid(res: std::io::Result<fastbcc_graph::Graph>, what: &str) {
    match res {
        Ok(_) => panic!("{what}: loaded successfully"),
        Err(e) => assert_eq!(
            e.kind(),
            ErrorKind::InvalidData,
            "{what}: wrong error kind ({e})"
        ),
    }
}

// --- text format -----------------------------------------------------------

fn text_file(lines: &[&str]) -> Vec<u8> {
    let mut s = String::from("AdjacencyGraph\n");
    for l in lines {
        s.push_str(l);
        s.push('\n');
    }
    s.into_bytes()
}

#[test]
fn text_arc_wider_than_u32_is_rejected() {
    // 2^32 + 1 would previously truncate to the valid-looking id 1.
    let big = (1u64 << 32) + 1;
    let f = TmpFile::write(
        "wide_arc",
        &text_file(&["3", "2", "0", "1", "2", &big.to_string(), "0"]),
    );
    assert_invalid(load_adjacency_text(&f.0), "arc >= 2^32");
}

#[test]
fn text_out_of_range_arc_is_rejected() {
    let f = TmpFile::write("oob_arc", &text_file(&["2", "2", "0", "1", "1", "5"]));
    assert_invalid(load_adjacency_text(&f.0), "arc >= n");
}

#[test]
fn text_offsets_beyond_m_are_rejected() {
    let f = TmpFile::write("off_gt_m", &text_file(&["2", "2", "0", "9", "1", "0"]));
    assert_invalid(load_adjacency_text(&f.0), "offset beyond m");
    let f = TmpFile::write("off_dec", &text_file(&["3", "2", "0", "2", "1", "1", "0"]));
    assert_invalid(load_adjacency_text(&f.0), "decreasing offsets");
    let f = TmpFile::write("off_first", &text_file(&["2", "2", "1", "2", "1", "0"]));
    assert_invalid(load_adjacency_text(&f.0), "first offset != 0");
}

#[test]
fn text_garbage_and_missing_tokens_are_rejected() {
    let f = TmpFile::write("garbage", &text_file(&["2", "x"]));
    assert_invalid(load_adjacency_text(&f.0), "non-numeric token");
    let f = TmpFile::write("negative", &text_file(&["2", "-1"]));
    assert_invalid(load_adjacency_text(&f.0), "negative token");
    let f = TmpFile::write("missing", &text_file(&["4", "2", "0", "0"]));
    assert_invalid(load_adjacency_text(&f.0), "missing tokens");
    let f = TmpFile::write("huge_n_txt", &text_file(&[&u64::MAX.to_string(), "0"]));
    assert_invalid(load_adjacency_text(&f.0), "huge n");
}

// --- mmap snapshot format --------------------------------------------------

/// A snapshot file with an arbitrary header and raw section bytes.
fn snapshot_file(
    magic: &[u8; 8],
    backend: u32,
    reserved: u32,
    n: u64,
    m: u64,
    payload: u64,
    sections: &[u8],
) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(magic);
    b.extend_from_slice(&backend.to_le_bytes());
    b.extend_from_slice(&reserved.to_le_bytes());
    b.extend_from_slice(&n.to_le_bytes());
    b.extend_from_slice(&m.to_le_bytes());
    b.extend_from_slice(&payload.to_le_bytes());
    b.extend_from_slice(sections);
    b
}

/// A flat-backend snapshot with the given tables.
fn flat_snapshot(n: u64, m: u64, offsets: &[u64], arcs: &[u32]) -> Vec<u8> {
    let mut s = Vec::new();
    for &o in offsets {
        s.extend_from_slice(&o.to_le_bytes());
    }
    for &a in arcs {
        s.extend_from_slice(&a.to_le_bytes());
    }
    snapshot_file(b"FBCCMAP1", 1, 0, n, m, 0, &s)
}

/// A compressed-backend snapshot with the given tables and byte stream.
fn comp_snapshot(n: u64, m: u64, arc_offs: &[u64], byte_offs: &[u64], data: &[u8]) -> Vec<u8> {
    let mut s = Vec::new();
    for &o in arc_offs {
        s.extend_from_slice(&o.to_le_bytes());
    }
    for &o in byte_offs {
        s.extend_from_slice(&o.to_le_bytes());
    }
    s.extend_from_slice(data);
    snapshot_file(b"FBCCMAP1", 2, 0, n, m, data.len() as u64, &s)
}

/// LEB128-encode `x` (mirrors the crate's internal writer).
fn varint(mut x: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x != 0 {
            out.push(b | 0x80);
        } else {
            out.push(b);
            break;
        }
    }
    out
}

fn assert_snapshot_invalid(bytes: &[u8], what: &str) {
    let f = TmpFile::write(&format!("snap_{}", what.replace(' ', "_")), bytes);
    match load_snapshot(&f.0) {
        Ok(_) => panic!("{what}: loaded successfully"),
        Err(e) => assert_eq!(
            e.kind(),
            ErrorKind::InvalidData,
            "{what}: wrong error kind ({e})"
        ),
    }
}

#[test]
fn snapshot_bad_magic_version_and_backend_are_rejected() {
    let good = flat_snapshot(2, 2, &[0, 1, 2], &[1, 0]);
    let mut bad_magic = good.clone();
    bad_magic[..8].copy_from_slice(b"FBCCMAP2"); // future format version
    assert_snapshot_invalid(&bad_magic, "wrong version magic");
    bad_magic[..8].copy_from_slice(b"GARBAGE!");
    assert_snapshot_invalid(&bad_magic, "bad magic");
    assert_snapshot_invalid(
        &snapshot_file(b"FBCCMAP1", 3, 0, 0, 0, 0, &[0u8; 8]),
        "unknown backend tag",
    );
    assert_snapshot_invalid(
        &snapshot_file(b"FBCCMAP1", 1, 7, 0, 0, 0, &[0u8; 8]),
        "nonzero reserved field",
    );
}

#[test]
fn snapshot_truncation_and_oversize_are_rejected() {
    let good = flat_snapshot(2, 2, &[0, 1, 2], &[1, 0]);
    assert_snapshot_invalid(&good[..good.len() - 1], "truncated by one byte");
    assert_snapshot_invalid(&good[..20], "truncated inside header");
    let mut padded = good.clone();
    padded.extend_from_slice(b"junk");
    assert_snapshot_invalid(&padded, "trailing garbage");
    // Header promises more sections than the file holds: offsets past EOF.
    assert_snapshot_invalid(
        &snapshot_file(b"FBCCMAP1", 1, 0, 1 << 40, 0, 0, &[]),
        "offset table past eof",
    );
}

#[test]
fn snapshot_attacker_sized_headers_are_rejected() {
    // n at the id-space limit and sizes that overflow the length math
    // must error before any table is touched.
    assert_snapshot_invalid(
        &snapshot_file(b"FBCCMAP1", 1, 0, u32::MAX as u64, 0, 0, &[]),
        "vertex count exceeds id space",
    );
    assert_snapshot_invalid(
        &snapshot_file(b"FBCCMAP1", 1, 0, u64::MAX / 8, u64::MAX / 8, 0, &[]),
        "section size overflow",
    );
    assert_snapshot_invalid(
        &snapshot_file(b"FBCCMAP1", 2, 0, 2, 2, u64::MAX / 8, &[0u8; 48]),
        "compressed payload overflow",
    );
}

#[test]
fn snapshot_flat_bad_tables_are_rejected() {
    assert_snapshot_invalid(
        &flat_snapshot(2, 2, &[0, 2, 1], &[1, 0]),
        "decreasing offsets",
    );
    assert_snapshot_invalid(
        &flat_snapshot(2, 2, &[1, 2, 2], &[1, 0]),
        "first offset nonzero",
    );
    assert_snapshot_invalid(
        &flat_snapshot(2, 2, &[0, 1, 1], &[1, 0]),
        "last offset below m",
    );
    assert_snapshot_invalid(
        &flat_snapshot(2, 2, &[0, 1, 2], &[1, 9]),
        "arc out of range",
    );
    // A flat snapshot must not claim a compressed payload.
    let mut s = Vec::new();
    for &o in &[0u64, 1, 2] {
        s.extend_from_slice(&o.to_le_bytes());
    }
    for &a in &[1u32, 0] {
        s.extend_from_slice(&a.to_le_bytes());
    }
    s.push(0);
    assert_snapshot_invalid(
        &snapshot_file(b"FBCCMAP1", 1, 0, 2, 2, 1, &s),
        "flat with payload",
    );
}

#[test]
fn snapshot_compressed_corrupt_streams_are_rejected() {
    // Unterminated varint: a lone continuation byte where vertex 0's
    // single-neighbor stream should be.
    assert_snapshot_invalid(
        &comp_snapshot(1, 1, &[0, 1], &[0, 1], &[0x80]),
        "varint overrun",
    );
    // Neighbor id out of range: head decodes to vertex 5 in a 1-vertex
    // graph (zigzag(5 - 0) = 10).
    assert_snapshot_invalid(
        &comp_snapshot(1, 1, &[0, 1], &[0, 1], &[10]),
        "decoded id out of range",
    );
    // Stream longer than the degree needs: exact-consumption check.
    assert_snapshot_invalid(
        &comp_snapshot(1, 1, &[0, 2], &[0, 2], &[0, 0]),
        "stream not fully consumed",
    );
    // Truncated block: byte_offsets promise two bytes of stream for two
    // neighbors but the gap varint after the head is missing.
    assert_snapshot_invalid(
        &comp_snapshot(1, 2, &[0, 2], &[0, 1], &[0]),
        "truncated block",
    );
    // Byte offsets that decrease.
    assert_snapshot_invalid(
        &comp_snapshot(2, 2, &[0, 1, 2], &[2, 1, 2], &[0, 0]),
        "decreasing byte offsets",
    );
}

#[test]
fn snapshot_compressed_extreme_varints_are_rejected() {
    // A gap >= 2^63 must stay unsigned during validation: after head 5,
    // gap u64::MAX - 1 reinterpreted as i64 is -2, which would land back
    // in range as neighbor 3 and smuggle the unsorted list [5, 3] past
    // validation (and panic the overflow-checked decoder).
    let mut data = varint(10); // zigzag(5 - 0): block head = 5
    data.extend(varint(u64::MAX - 1));
    let len = data.len() as u64;
    assert_snapshot_invalid(
        &comp_snapshot(
            6,
            2,
            &[0, 2, 2, 2, 2, 2, 2],
            &[0, len, len, len, len, len, len],
            &data,
        ),
        "wrapping gap",
    );
    // A zigzag head decoding to i64::MAX: `v + unzigzag` overflows i64,
    // so reconstruction must widen rather than panic in checked builds.
    let data = varint(u64::MAX - 1); // unzigzag = i64::MAX
    let len = data.len() as u64;
    assert_snapshot_invalid(
        &comp_snapshot(1, 1, &[0, 1], &[0, len], &data),
        "head overflows i64",
    );
    // And the i64::MIN side.
    let data = varint(u64::MAX); // unzigzag = i64::MIN
    let len = data.len() as u64;
    assert_snapshot_invalid(
        &comp_snapshot(1, 1, &[0, 1], &[0, len], &data),
        "head underflows i64",
    );
}

#[test]
fn snapshot_corrupted_real_file_is_rejected_not_panicking() {
    // Corrupt a genuine compressed snapshot's final stream byte into a
    // continuation byte: the full-file validation pass must catch it.
    let cg = CompressedGraph::from_graph(&cycle(50));
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fastbcc_io_malformed_corrupt_{}",
        std::process::id()
    ));
    save_snapshot_compressed(&cg, &p).unwrap();
    let mut bytes = std::fs::read(&p).unwrap();
    std::fs::remove_file(&p).ok();
    *bytes.last_mut().unwrap() = 0x80;
    assert_snapshot_invalid(&bytes, "corrupted real stream");
}

#[test]
fn snapshot_roundtrips_still_work_after_hardening() {
    let g = barbell(6, 4);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fastbcc_io_malformed_snap_rt_{}",
        std::process::id()
    ));
    save_snapshot(&g, &p).unwrap();
    let mg = load_snapshot(&p).unwrap();
    match mg {
        fastbcc_graph::MappedGraph::Flat(f) => assert_eq!(f.to_graph(), g),
        _ => panic!("flat snapshot loaded as compressed"),
    }
    let cg = CompressedGraph::from_graph(&g);
    save_snapshot_compressed(&cg, &p).unwrap();
    let mg = load_snapshot(&p).unwrap();
    match mg {
        fastbcc_graph::MappedGraph::Compressed(c) => assert_eq!(c.to_compressed(), cg),
        _ => panic!("compressed snapshot loaded as flat"),
    }
    std::fs::remove_file(&p).ok();
}

#[test]
fn text_roundtrip_still_works_after_hardening() {
    let g = windmill(7);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fastbcc_io_malformed_rt_txt_{}",
        std::process::id()
    ));
    save_adjacency_text(&g, &p).unwrap();
    assert_eq!(load_adjacency_text(&p).unwrap(), g);
    std::fs::remove_file(&p).ok();
}
