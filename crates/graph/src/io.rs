//! Graph serialization in the PBBS-style text adjacency format, for
//! interoperability with the paper's C++ artifacts. The binary on-disk
//! format is the mmap snapshot (`crate::mmap`).

use crate::csr::Graph;
use crate::types::V;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// `InvalidData` error with a formatted message.
fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write the PBBS "AdjacencyGraph" text format used by the paper's suite.
pub fn save_adjacency_text(g: &Graph, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "AdjacencyGraph")?;
    writeln!(w, "{}", g.n())?;
    writeln!(w, "{}", g.m())?;
    for &o in &g.offsets()[..g.n()] {
        writeln!(w, "{o}")?;
    }
    for &a in g.arcs() {
        writeln!(w, "{a}")?;
    }
    w.flush()
}

/// Read the PBBS "AdjacencyGraph" text format.
///
/// The file is treated as untrusted input: counts/offsets/arcs are parsed
/// as full `u64` values (no silent `as u32` wrap for ids ≥ 2³²), offsets
/// must be nondecreasing and bounded by `m`, arcs must be `< n` —
/// violations return [`io::ErrorKind::InvalidData`] naming the offending
/// value instead of panicking inside [`Graph::from_raw_parts`].
pub fn load_adjacency_text(path: &Path) -> io::Result<Graph> {
    let r = BufReader::new(File::open(path)?);
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| bad("empty file"))??;
    if header.trim() != "AdjacencyGraph" {
        return Err(bad("bad header"));
    }
    let mut next_u64 = |what: &str| -> io::Result<u64> {
        loop {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing {what}")))??;
            let t = line.trim();
            if !t.is_empty() {
                return t
                    .parse::<u64>()
                    .map_err(|e| bad(format!("{what} {t:?}: {e}")));
            }
        }
    };
    let n64 = next_u64("n")?;
    if n64 >= u32::MAX as u64 {
        return Err(bad(format!("vertex count {n64} exceeds the u32 id space")));
    }
    let n = n64 as usize;
    let m64 = next_u64("m")?;
    if m64 > usize::MAX as u64 {
        return Err(bad(format!("arc count {m64} exceeds the address space")));
    }
    let m = m64 as usize;
    let mut offsets = Vec::new();
    let mut prev = 0u64;
    for i in 0..n {
        let o = next_u64("offset")?;
        if i == 0 && o != 0 {
            return Err(bad(format!("first offset is {o}, expected 0")));
        }
        if o < prev {
            return Err(bad(format!("offset {o} at index {i} decreases (< {prev})")));
        }
        if o > m64 {
            return Err(bad(format!("offset {o} at index {i} exceeds m = {m64}")));
        }
        prev = o;
        offsets.push(o as usize);
    }
    offsets.push(m);
    let mut arcs = Vec::new();
    for i in 0..m {
        let a = next_u64("arc")?;
        if a >= n64 {
            return Err(bad(format!("arc {a} at index {i} out of range (n = {n})")));
        }
        arcs.push(a as V);
    }
    Ok(Graph::from_raw_parts(offsets, arcs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fastbcc_io_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn text_roundtrip() {
        let g = barbell(4, 3);
        let p = tmp("txt");
        save_adjacency_text(&g, &p).unwrap();
        let h = load_adjacency_text(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::empty(4);
        let p = tmp("empty");
        save_adjacency_text(&g, &p).unwrap();
        assert_eq!(load_adjacency_text(&p).unwrap(), g);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_header_rejected() {
        let p = tmp("junk");
        std::fs::write(&p, b"NOTAGRAPH-file").unwrap();
        assert!(load_adjacency_text(&p).is_err());
        std::fs::remove_file(&p).ok();
    }
}
