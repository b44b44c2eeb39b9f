//! # ssr-store — zero-parse binary graph container (`.ssg`)
//!
//! Every layer above the graph substrate (QueryEngine, AllPairsEngine,
//! `simstar serve`) used to ingest graphs by parsing text edge lists:
//! re-tokenizing, re-validating, and re-sorting the whole graph on every
//! CLI run, server start, and admin `reload`. This crate stores the
//! already-built CSR on disk instead, in the format family web-scale graph
//! systems settled on (WebGraph and friends): **sorted adjacency as
//! delta-gap LEB128 varints**, both directions, behind a versioned header
//! with a section table and per-section FNV checksums.
//!
//! * [`StoreWriter`] — streams a [`DiGraph`] into the container, one node
//!   at a time, with optional metadata (dataset id, scale divisor, build
//!   parameters).
//! * [`StoreReader`] — opens a file (header + table + metadata only),
//!   then [`StoreReader::load_full`] decodes both directions in one
//!   sequential pass (no parsing, no re-sort — node ids come out exactly
//!   as they went in), or [`StoreReader::load_out_only`] seeks past the
//!   in-adjacency for forward-only workloads.
//! * [`load_graph_auto`] — the magic-byte sniffing entry point the CLI
//!   and the serve reload path use: `.ssg` containers and text edge lists
//!   are accepted interchangeably everywhere a graph path is expected.
//!   Its `_into` form, like [`StoreReader::load_full_into`], decodes into
//!   spare arrays a retired graph gave up, so a server's steady-state
//!   reloads allocate nothing large.
//!
//! Corruption never panics: truncation, bit flips, bad magic, and version
//! skew all surface as typed [`StoreError`] variants (property- and
//! corruption-tested in `tests/`).
//!
//! The wire layout is documented in [`mod@format`]; sizes on the paper's
//! datasets land around 6-9 bits per stored id versus 32 in memory and
//! ~70 for the text format (see `BENCH_store.json` at the repo root).

// Denied (not forbidden) so the one FFI mmap module can opt back in;
// everything else in the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
pub mod ef;
mod error;
pub mod format;
#[allow(unsafe_code)]
mod mmap;
mod random;
mod reader;
pub mod varint;
mod writer;

pub use ef::EliasFano;
pub use error::StoreError;
pub use format::{SectionInfo, FORMAT_VERSION, FORMAT_VERSION_V1, MAGIC};
pub use random::{RandomAccessOptions, RandomAccessStore};
pub use reader::{OutAdjacency, StoreReader, VerifyReport};
pub use writer::StoreWriter;

use ssr_graph::{CsrBuffers, DiGraph};
use std::io::Read;
use std::path::Path;

/// Conventional metadata keys. Nothing enforces them — they exist so the
/// writer and the dataset cache agree on spelling.
pub mod meta_keys {
    /// Dataset identifier (e.g. `CitHepTh`).
    pub const DATASET: &str = "dataset";
    /// Scale divisor the dataset was generated at.
    pub const DIVISOR: &str = "divisor";
    /// Free-form build parameters (generator kind, seed, …).
    pub const BUILD: &str = "build";
    /// Byte count v1 coding of the same (unpermuted) graph would need —
    /// recorded by the v2 writer so `store info` can report the format
    /// delta without rebuilding.
    pub const V1_ADJACENCY_BYTES: &str = "v1.adjacency_bytes";
    /// Name of the ordering a layout permutation was derived with
    /// (`bfs`, `degree`, …).
    pub const PERM_ORDER: &str = "perm.order";
}

/// Whether `path` starts with the `.ssg` magic bytes. Files shorter than
/// the magic are simply "not a store" (they may still be valid text).
pub fn is_store_file<P: AsRef<Path>>(path: P) -> Result<bool, StoreError> {
    let mut file = std::fs::File::open(path)?;
    let mut prefix = [0u8; MAGIC.len()];
    let mut filled = 0;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..])? {
            0 => return Ok(false),
            k => filled += k,
        }
    }
    Ok(prefix == MAGIC)
}

/// Loads a graph from either format, deciding by content, not extension:
/// `.ssg` magic ⇒ the zero-parse store path, anything else ⇒ the text
/// edge-list parser. This is what `simstar --input` and the serve admin
/// `reload` op call, so stores are accepted transparently everywhere.
pub fn load_graph_auto<P: AsRef<Path>>(path: P) -> Result<DiGraph, StoreError> {
    load_graph_auto_into(path, &mut CsrBuffers::default(), &mut Vec::new())
}

/// [`load_graph_auto`], with a store decoded through
/// [`StoreReader::load_full_into`] into `spare` and `section`. A text edge
/// list is parsed into fresh arrays and leaves both untouched.
pub fn load_graph_auto_into<P: AsRef<Path>>(
    path: P,
    spare: &mut CsrBuffers,
    section: &mut Vec<u8>,
) -> Result<DiGraph, StoreError> {
    if is_store_file(&path)? {
        StoreReader::open(&path)?.load_full_into(spare, section)
    } else {
        Ok(ssr_graph::io::read_edge_list_file(&path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ssr_store_lib_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    #[test]
    fn auto_loader_accepts_both_formats() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let text_path = tmp("auto.txt");
        ssr_graph::io::write_edge_list_file(&g, &text_path).unwrap();
        let store_path = tmp("auto.ssg");
        StoreWriter::new(&g).write_file(&store_path).unwrap();
        assert_eq!(load_graph_auto(&text_path).unwrap(), g);
        assert_eq!(load_graph_auto(&store_path).unwrap(), g);
    }

    #[test]
    fn sniffing_handles_short_and_missing_files() {
        let short = tmp("short.bin");
        std::fs::write(&short, [0x89, b'S']).unwrap();
        assert!(!is_store_file(&short).unwrap());
        let empty = tmp("empty.bin");
        std::fs::write(&empty, []).unwrap();
        assert!(!is_store_file(&empty).unwrap());
        assert!(matches!(is_store_file(tmp("missing.ssg")), Err(StoreError::Io(_))));
    }

    #[test]
    fn text_parse_errors_surface_through_auto_loader() {
        let bad = tmp("bad.txt");
        std::fs::write(&bad, "0 1\nnot an edge\n").unwrap();
        assert!(matches!(load_graph_auto(&bad), Err(StoreError::Graph(_))));
    }
}
