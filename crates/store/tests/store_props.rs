//! Property-based round-trip tests: arbitrary graph → `.ssg` →
//! `load_full` is bit-identical, down to the engine results computed on
//! top of the reloaded graph, and a load into spare arrays of any content
//! equals `load_full`.

use proptest::prelude::*;
use simrank_star::{QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_graph::perm::{bfs_order, degree_order};
use ssr_graph::{CsrBuffers, DiGraph, GraphBuilder, NeighborAccess, NodeId};
use ssr_store::{RandomAccessStore, StoreReader, StoreWriter};
use std::sync::Arc;

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (1usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m).prop_map(move |edges| {
            let mut b =
                GraphBuilder::with_capacity(edges.len()).allow_self_loops(true).reserve_nodes(n);
            b.extend_edges(edges);
            b.build().expect("self-loops allowed ⇒ build succeeds")
        })
    })
}

/// Writes to an in-memory buffer, reads back through a temp file (the
/// reader API is file-based, mirroring production use).
fn round_trip(g: &DiGraph, name: u64) -> (DiGraph, StoreReader) {
    let dir = std::env::temp_dir().join("ssr_store_props");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_{name:016x}.ssg", std::process::id()));
    StoreWriter::new(g).meta("dataset", "prop").write_file(&path).unwrap();
    let mut reader = StoreReader::open(&path).unwrap();
    let loaded = reader.load_full().unwrap();
    std::fs::remove_file(&path).ok();
    (loaded, reader)
}

/// Cheap structural fingerprint to name temp files per case.
fn fingerprint(g: &DiGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (u, v) in g.edges() {
        h = h.wrapping_mul(0x100_0000_01b3) ^ ((u as u64) << 32 | v as u64);
    }
    h ^ g.node_count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reloaded graph is bit-identical: node/edge counts and every
    /// adjacency slice in both directions.
    #[test]
    fn load_full_is_bit_identical(g in arb_graph(40, 160)) {
        let (loaded, _) = round_trip(&g, fingerprint(&g));
        prop_assert_eq!(loaded.node_count(), g.node_count());
        prop_assert_eq!(loaded.edge_count(), g.edge_count());
        for v in 0..g.node_count() as NodeId {
            prop_assert_eq!(loaded.out_neighbors(v), g.out_neighbors(v));
            prop_assert_eq!(loaded.in_neighbors(v), g.in_neighbors(v));
        }
        // `PartialEq` covers the same ground; keep it as the summary.
        prop_assert_eq!(loaded, g);
    }

    /// A load into spare arrays and a section buffer full of junk equals
    /// `load_full`, for v2, v1 and permuted stores. An unpermuted load
    /// takes all four spare arrays; a permuted one remaps into fresh
    /// arrays and leaves them.
    #[test]
    fn load_into_garbage_spares_matches_load_full(
        g in arb_graph(32, 120),
        junk in proptest::collection::vec(0u32..1 << 20, 0..200),
    ) {
        let dir = std::env::temp_dir().join("ssr_store_props");
        std::fs::create_dir_all(&dir).unwrap();
        let writers = [
            ("v2", StoreWriter::new(&g)),
            ("v1", StoreWriter::new(&g).version(1)),
            ("bfs", StoreWriter::new(&g).permutation(bfs_order(&g), "bfs")),
        ];
        for (name, writer) in writers {
            let path =
                dir.join(format!("{}_spare_{name}_{:016x}.ssg", std::process::id(), fingerprint(&g)));
            writer.write_file(&path).unwrap();
            let expected = StoreReader::open(&path).unwrap().load_full().unwrap();
            let mut spare = CsrBuffers {
                out_offsets: junk.iter().map(|&x| x as usize).collect(),
                out_targets: junk.clone(),
                in_offsets: junk[junk.len() / 2..].iter().map(|&x| x as usize).collect(),
                in_sources: junk[..junk.len() / 3].to_vec(),
            };
            let mut section: Vec<u8> = junk.iter().map(|&x| x as u8).collect();
            let mut r = StoreReader::open(&path).unwrap();
            let loaded = r.load_full_into(&mut spare, &mut section).unwrap();
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(&loaded, &expected, "{} store", name);
            prop_assert_eq!(spare.capacity_bytes() == 0, !r.is_permuted(), "{} store", name);
        }
    }

    /// The out-only load agrees with the full graph's out-direction.
    #[test]
    fn load_out_only_matches(g in arb_graph(32, 120)) {
        let dir = std::env::temp_dir().join("ssr_store_props");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_out_{:016x}.ssg", std::process::id(), fingerprint(&g)));
        StoreWriter::new(&g).write_file(&path).unwrap();
        let out = StoreReader::open(&path).unwrap().load_out_only().unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(out.node_count(), g.node_count());
        prop_assert_eq!(out.edge_count(), g.edge_count());
        for v in 0..g.node_count() as NodeId {
            prop_assert_eq!(out.out_neighbors(v), g.out_neighbors(v));
        }
    }

    /// Engine results on top of the reloaded graph are bitwise identical
    /// to results on the original — the store is a container, never a
    /// perturbation.
    #[test]
    fn engine_results_survive_the_round_trip(g in arb_graph(24, 80)) {
        let (loaded, _) = round_trip(&g, fingerprint(&g) ^ 1);
        let params = SimStarParams { c: 0.6, iterations: 4 };
        let a = QueryEngine::new(&g, params);
        let b = QueryEngine::new(&loaded, params);
        for q in 0..g.node_count().min(8) as NodeId {
            let ra = a.query(q);
            let rb = b.query(q);
            prop_assert_eq!(ra, rb, "query {} diverged after reload", q);
        }
    }

    /// Header statistics and metadata survive.
    #[test]
    fn header_reflects_graph(g in arb_graph(32, 120)) {
        let (_, reader) = round_trip(&g, fingerprint(&g) ^ 2);
        prop_assert_eq!(reader.node_count(), g.node_count());
        prop_assert_eq!(reader.edge_count(), g.edge_count());
        prop_assert_eq!(reader.meta("dataset"), Some("prop"));
        if g.edge_count() > 0 {
            prop_assert!(reader.bits_per_edge() > 0.0);
        }
    }

    /// Both orderings are bijections (perm ∘ inv = id in both
    /// directions), and a permuted store loads back in the original id
    /// space, bit-identical to the source graph.
    #[test]
    fn permutation_round_trips(g in arb_graph(32, 120)) {
        let dir = std::env::temp_dir().join("ssr_store_props");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, p) in [("bfs", bfs_order(&g)), ("degree", degree_order(&g))] {
            for v in 0..g.node_count() as NodeId {
                prop_assert_eq!(p.to_old(p.to_new(v)), v);
                prop_assert_eq!(p.to_new(p.to_old(v)), v);
            }
            let path = dir.join(format!(
                "{}_{name}_{:016x}.ssg",
                std::process::id(),
                fingerprint(&g)
            ));
            StoreWriter::new(&g).permutation(p, name).write_file(&path).unwrap();
            let mut r = StoreReader::open(&path).unwrap();
            prop_assert!(r.is_permuted());
            let loaded = r.load_full().unwrap();
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(&loaded, &g, "{} permutation perturbed the graph", name);
        }
    }

    /// The random-access reader serves exactly the CSR's adjacency for
    /// every node and both directions — plain and permuted stores alike
    /// (the permuted store answers in the original id space).
    #[test]
    fn random_access_matches_csr(g in arb_graph(32, 120)) {
        let dir = std::env::temp_dir().join("ssr_store_props");
        std::fs::create_dir_all(&dir).unwrap();
        let fp = fingerprint(&g);
        let plain = dir.join(format!("{}_ra_{fp:016x}.ssg", std::process::id()));
        let perm = dir.join(format!("{}_rap_{fp:016x}.ssg", std::process::id()));
        StoreWriter::new(&g).write_file(&plain).unwrap();
        StoreWriter::new(&g).permutation(bfs_order(&g), "bfs").write_file(&perm).unwrap();
        for path in [&plain, &perm] {
            let store = RandomAccessStore::open(path).unwrap();
            prop_assert_eq!(store.node_count(), g.node_count());
            prop_assert_eq!(store.edge_count(), g.edge_count());
            for v in 0..g.node_count() as NodeId {
                prop_assert_eq!(store.out_neighbors_vec(v), g.out_neighbors(v));
                prop_assert_eq!(store.in_neighbors_vec(v), g.in_neighbors(v));
            }
        }
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&perm).ok();
    }

    /// Deterministic engine rows are bitwise identical across the three
    /// backings: in-memory CSR, random-access v2 store, and a permuted
    /// random-access store with ids mapped back.
    #[test]
    fn engine_identical_across_backings(g in arb_graph(20, 60)) {
        let dir = std::env::temp_dir().join("ssr_store_props");
        std::fs::create_dir_all(&dir).unwrap();
        let fp = fingerprint(&g);
        let plain = dir.join(format!("{}_eng_{fp:016x}.ssg", std::process::id()));
        let perm = dir.join(format!("{}_engp_{fp:016x}.ssg", std::process::id()));
        StoreWriter::new(&g).write_file(&plain).unwrap();
        StoreWriter::new(&g).permutation(bfs_order(&g), "bfs").write_file(&perm).unwrap();
        let params = SimStarParams { c: 0.6, iterations: 4 };
        let opts = QueryEngineOptions::default();
        let mem = QueryEngine::new(&g, params);
        let ra = QueryEngine::with_access(
            Arc::new(RandomAccessStore::open(&plain).unwrap()),
            params,
            opts.clone(),
        );
        let rp = QueryEngine::with_access(
            Arc::new(RandomAccessStore::open(&perm).unwrap()),
            params,
            opts,
        );
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&perm).ok();
        for q in 0..g.node_count().min(6) as NodeId {
            let want = mem.query(q);
            prop_assert_eq!(ra.query(q), want.clone(), "mmap row {} diverged", q);
            prop_assert_eq!(rp.query(q), want, "permuted mmap row {} diverged", q);
        }
    }
}
