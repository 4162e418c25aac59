//! # fastbcc-graph
//!
//! Graph substrate for the FAST-BCC reproduction: a compressed-sparse-row
//! (CSR) representation with a parallel builder, the synthetic generator
//! suite standing in for the paper's 27-graph benchmark collection, graph
//! statistics (approximate diameter, degree distributions), vertex
//! relabeling, and a simple binary/text graph format for caching generated
//! inputs.
//!
//! Algorithms consume graphs through the [`view::GraphView`] trait rather
//! than the flat [`Graph`] struct, so three backends interchange freely:
//! the flat CSR, the Ligra+/GBBS-style block-compressed
//! [`CompressedGraph`] (difference-sorted varint blocks decoded per block
//! inside the edgeMap hot loops — see [`compressed`]), and the zero-copy
//! [`MappedGraph`] returned by [`load_snapshot`], which `mmap`s a
//! validated on-disk snapshot of either backend without copying it into
//! RAM (see [`mmap`]).
//!
//! Conventions:
//!
//! * vertices are dense `u32` ids (`0..n`), [`types::NONE`] is the sentinel;
//! * all BCC algorithms operate on **undirected** graphs stored
//!   symmetrically (each edge appears as two directed arcs);
//! * builders deduplicate parallel edges and drop self-loops, mirroring the
//!   paper's preprocessing ("for directed graphs, we symmetrize them").

pub mod builder;
pub mod compressed;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod io;
pub mod mmap;
pub mod permute;
pub mod stats;
pub mod types;
pub mod view;

pub use compressed::CompressedGraph;
pub use csr::Graph;
pub use delta::{apply_delta, DeltaScratch, GraphDelta};
pub use mmap::{load_snapshot, save_snapshot, save_snapshot_compressed, MappedGraph};
pub use types::{EdgeList, NONE, V};
pub use view::{ArcCursor, CsrView, GraphView};
