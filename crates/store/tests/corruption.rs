//! Corruption battery: every way a `.ssg` file can be damaged must
//! surface as a typed [`StoreError`] — never a panic, never a silently
//! wrong graph.

use ssr_graph::{CsrBuffers, DiGraph};
use ssr_store::{StoreError, StoreReader, StoreWriter};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ssr_store_corruption");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}_{name}", std::process::id()))
}

fn sample_bytes() -> Vec<u8> {
    let g = DiGraph::from_edges(
        64,
        &(0u32..63).map(|v| (v, v + 1)).chain((0..32).map(|v| (v, v * 2))).collect::<Vec<_>>(),
    )
    .unwrap();
    let mut buf = Vec::new();
    StoreWriter::new(&g).meta("dataset", "corruption").write_to(&mut buf).unwrap();
    buf
}

/// Writes `bytes` and returns whatever opening + fully loading produces.
/// A load of the same file into spare arrays and a section buffer full of
/// junk must produce the same graph, or the same error.
fn open_and_load(name: &str, bytes: &[u8]) -> Result<DiGraph, StoreError> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let result = StoreReader::open(&path).and_then(|mut r| r.load_full());
    let mut spare = CsrBuffers {
        out_offsets: vec![usize::MAX; 3],
        out_targets: vec![7; 500],
        in_offsets: vec![1; 90],
        in_sources: Vec::with_capacity(40),
    };
    let mut section = vec![0xa5; 700];
    let into =
        StoreReader::open(&path).and_then(|mut r| r.load_full_into(&mut spare, &mut section));
    assert_eq!(into, result, "{name}: a load into spares disagrees with load_full");
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn pristine_file_loads() {
    assert!(open_and_load("pristine.ssg", &sample_bytes()).is_ok());
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = sample_bytes();
    bytes[0] = b'G';
    assert_eq!(open_and_load("magic.ssg", &bytes).unwrap_err(), StoreError::BadMagic);
    // Text files are the common non-store input.
    assert_eq!(
        open_and_load("text.ssg", b"# an edge list\n0 1\n1 2\n").unwrap_err(),
        StoreError::BadMagic
    );
}

#[test]
fn version_skew_is_typed() {
    let mut bytes = sample_bytes();
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(
        open_and_load("version.ssg", &bytes).unwrap_err(),
        StoreError::UnsupportedVersion { found: 7, supported: ssr_store::FORMAT_VERSION }
    );
}

#[test]
fn every_truncation_point_is_an_error_not_a_panic() {
    let bytes = sample_bytes();
    // Sweep the whole file: any prefix must fail loudly (magic, header,
    // table, payload truncations all land somewhere in this range).
    for len in 0..bytes.len() - 1 {
        let result = open_and_load("trunc.ssg", &bytes[..len]);
        let err = result.expect_err(&format!("prefix of {len} bytes must not load"));
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Io(_)
            ),
            "prefix {len}: unexpected error {err:?}"
        );
    }
}

#[test]
fn payload_bit_flips_hit_checksums() {
    let bytes = sample_bytes();
    // Flip one bit in every payload byte (past the header + table); the
    // per-section checksum must catch each one at read time.
    let payload_start = bytes.len() - (bytes.len() / 2); // deep inside sections
    for at in (payload_start..bytes.len()).step_by(7) {
        let mut copy = bytes.clone();
        copy[at] ^= 0x10;
        match open_and_load("flip.ssg", &copy) {
            Err(StoreError::ChecksumMismatch { .. }) => {}
            other => panic!("flip at {at}: expected checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn tampered_section_table_is_caught() {
    let bytes = sample_bytes();
    // Lie about a section length: either the bounds check or the
    // checksum (payload window shifted) must reject it.
    let mut copy = bytes.clone();
    // First section entry's len field lives at offset 36 + 16.
    let at = 36 + 16;
    let len = u64::from_le_bytes(copy[at..at + 8].try_into().unwrap());
    copy[at..at + 8].copy_from_slice(&(len + 3).to_le_bytes());
    assert!(open_and_load("table_len.ssg", &copy).is_err());
    // Point a section past the end of the file.
    let mut copy = bytes.clone();
    let at = 36 + 8; // first entry's offset field
    copy[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert_eq!(
        open_and_load("table_off.ssg", &copy).unwrap_err(),
        StoreError::Truncated { context: "section payload" }
    );
}

#[test]
fn header_count_lies_are_caught() {
    let bytes = sample_bytes();
    // Inflate the header's edge count: decode must notice the deficit.
    // (The adjacency payload checksums still pass — the corruption is in
    // the checksummed-by-nothing fixed header — so this is exactly the
    // case the structural count checks exist for.)
    let mut copy = bytes.clone();
    let m = u64::from_le_bytes(copy[24..32].try_into().unwrap());
    copy[24..32].copy_from_slice(&(m + 1).to_le_bytes());
    assert!(matches!(open_and_load("m_lie.ssg", &copy).unwrap_err(), StoreError::Corrupt { .. }));
    // Shrink the node count: trailing bytes / out-of-range ids surface.
    let mut copy = bytes.clone();
    let n = u64::from_le_bytes(copy[16..24].try_into().unwrap());
    copy[16..24].copy_from_slice(&(n - 1).to_le_bytes());
    assert!(matches!(open_and_load("n_lie.ssg", &copy).unwrap_err(), StoreError::Corrupt { .. }));
}

#[test]
fn inflated_header_counts_fail_before_allocating() {
    // The fixed header is not checksummed, so a flipped high bit in n or
    // m must be rejected by the open-time bounds (node/edge costs ≥ 1
    // payload byte each) — not honored by a terabyte Vec::with_capacity.
    let bytes = sample_bytes();
    let mut copy = bytes.clone();
    copy[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes()); // n = 2^40
    assert!(matches!(open_and_load("huge_n.ssg", &copy).unwrap_err(), StoreError::Corrupt { .. }));
    let mut copy = bytes.clone();
    copy[24..32].copy_from_slice(&(1u64 << 50).to_le_bytes()); // m = 2^50
    assert!(matches!(open_and_load("huge_m.ssg", &copy).unwrap_err(), StoreError::Corrupt { .. }));
    // n past the NodeId range is its own rejection, even when small
    // enough to pass the byte-cost bound on some crafted table.
    let mut copy = bytes;
    copy[16..24].copy_from_slice(&(u64::from(u32::MAX) + 2).to_le_bytes());
    assert!(matches!(
        open_and_load("n_overflows_u32.ssg", &copy).unwrap_err(),
        StoreError::Corrupt { .. }
    ));
}

#[test]
fn hostile_edge_count_in_sectionless_header_never_panics() {
    // A 36-byte file: valid magic/version, n=0, m=2^63, zero sections.
    // Open succeeds (no adjacency section to bound m against), so the
    // info accessors must tolerate absurd counts — `bits_per_edge` in
    // integer math would overflow `2 * m` — and load_full must fail
    // typed on the missing sections.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ssr_store::MAGIC);
    bytes.extend_from_slice(&ssr_store::FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes()); // flags
    bytes.extend_from_slice(&0u64.to_le_bytes()); // n
    bytes.extend_from_slice(&(1u64 << 63).to_le_bytes()); // m
    bytes.extend_from_slice(&0u32.to_le_bytes()); // section count
    let path = scratch("sectionless.ssg");
    std::fs::write(&path, &bytes).unwrap();
    let mut r = StoreReader::open(&path).unwrap();
    assert_eq!(r.bits_per_edge(), 0.0); // no adjacency sections at all
    assert_eq!(
        r.load_full().unwrap_err(),
        StoreError::MissingSection { section: ssr_store::format::SECTION_OUT }
    );
    std::fs::remove_file(&path).ok();
}

/// Replaces the payload of the section with the given id, fixing its
/// table entry (len + checksum) and shifting every later section's
/// offset — so the only inconsistency in the result is the payload the
/// test planted.
fn replace_section(buf: &[u8], id: u32, payload: &[u8]) -> Vec<u8> {
    let count = u32::from_le_bytes(buf[32..36].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| 36 + 32 * i)
        .find(|&at| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) == id)
        .expect("section present");
    let off = u64::from_le_bytes(buf[entry + 8..entry + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(buf[entry + 16..entry + 24].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(buf.len() + payload.len() - len);
    out.extend_from_slice(&buf[..off]);
    out.extend_from_slice(payload);
    out.extend_from_slice(&buf[off + len..]);
    out[entry + 16..entry + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out[entry + 24..entry + 32].copy_from_slice(&ssr_store_checksum(payload).to_le_bytes());
    let delta = payload.len() as i64 - len as i64;
    for i in 0..count {
        let at = 36 + 32 * i + 8;
        let o = u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
        if o as usize > off {
            out[at..at + 8].copy_from_slice(&((o as i64 + delta) as u64).to_le_bytes());
        }
    }
    out
}

#[test]
fn hostile_degree_varint_is_corrupt_not_overflow() {
    // v1 blocks open with a degree varint; handcraft one claiming 2^63
    // neighbors. The edge budget check must reject it without
    // overflowing (debug builds would panic on a naive `len + degree`
    // sum).
    let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
    // 10-byte varint of 2^63, padded so the section still covers the
    // v1 header's n + m byte cost.
    let mut hostile = vec![0x80u8; 9];
    hostile.push(0x01); // sets bit 63
    hostile.extend_from_slice(&[0x00; 2]);
    let mut buf = Vec::new();
    StoreWriter::new(&g).version(1).write_to(&mut buf).unwrap();
    let spliced = replace_section(&buf, ssr_store::format::SECTION_OUT, &hostile);
    match open_and_load("hostile_degree.ssg", &spliced) {
        Err(StoreError::Corrupt { message }) => {
            assert!(message.contains("more than"), "{message}");
        }
        other => panic!("hostile degree must be Corrupt, got {other:?}"),
    }
}

#[test]
fn hostile_v2_block_is_corrupt_not_overflow() {
    // v2 blocks carry no degree varint — the offset index delimits them
    // — so the analogous attacks are hostile varints inside a block: a
    // 2^63 first-neighbor delta (must fail the range check, not wrap),
    // and a block packing more ids than the header's edge budget.
    let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
    let mut huge_first = vec![0x80u8; 9];
    huge_first.push(0x01); // varint of 2^63 ⇒ zigzag-decodes to +2^62
    let over_budget = vec![0x00u8, 0x00]; // two ids where m = 1
    for (name, payload, expect) in
        [("huge_first", &huge_first, "references node"), ("over_budget", &over_budget, "more than")]
    {
        let mut buf = Vec::new();
        StoreWriter::new(&g).write_to(&mut buf).unwrap();
        let spliced = replace_section(&buf, ssr_store::format::SECTION_OUT, payload);
        // Keep the offset index consistent with the new section length
        // so open's first/last pinning passes and the block decode
        // itself is what rejects the bytes.
        let index =
            ssr_store::EliasFano::from_monotone(&[0, payload.len() as u64, payload.len() as u64]);
        let spliced =
            replace_section(&spliced, ssr_store::format::SECTION_OUT_OFFSETS, &index.encode());
        match open_and_load("hostile_v2_block.ssg", &spliced) {
            Err(StoreError::Corrupt { message }) => {
                assert!(message.contains(expect), "{name}: {message}");
            }
            other => panic!("{name}: hostile block must be Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn lying_offset_index_is_caught_with_valid_checksums() {
    // A v2 offset index whose interior entries are shifted but whose
    // first and last entries are right, re-checksummed so no byte-level
    // integrity check can object. The shifted boundary hands node 2's
    // block to node 1, which decodes into a structurally valid — but
    // different — edge set; only the out-vs-in edge digest comparison
    // notices. The index is load-bearing for every v2 decode, so the
    // sequential loader, verify, and the random-access open must all
    // reject, typed.
    let g = DiGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    let mut buf = Vec::new();
    StoreWriter::new(&g).write_to(&mut buf).unwrap();
    // True OUT payload: node 0 → [0x02], node 2 → [0x02]; offsets
    // 0,1,1,2,2. The lie moves node 2's byte into node 1's block.
    let lie = ssr_store::EliasFano::from_monotone(&[0, 1, 2, 2, 2]);
    let spliced = replace_section(&buf, ssr_store::format::SECTION_OUT_OFFSETS, &lie.encode());
    let path = scratch("offset_lie.ssg");
    std::fs::write(&path, &spliced).unwrap();
    let mut r = StoreReader::open(&path).unwrap();
    match r.load_full() {
        Err(StoreError::Corrupt { message }) => {
            assert!(message.contains("edge set"), "{message}")
        }
        other => panic!("load_full must catch the lying index, got {other:?}"),
    }
    assert!(matches!(r.verify(), Err(StoreError::Corrupt { .. })));
    assert!(matches!(ssr_store::RandomAccessStore::open(&path), Err(StoreError::Corrupt { .. })));
    std::fs::remove_file(&path).ok();
}

#[test]
fn direct_loads_reject_the_same_through_spares() {
    // The two inputs above whose tests call `load_full` themselves, run
    // through `open_and_load` so the spare path is held to the same error.
    let mut sectionless = Vec::new();
    sectionless.extend_from_slice(&ssr_store::MAGIC);
    sectionless.extend_from_slice(&ssr_store::FORMAT_VERSION.to_le_bytes());
    sectionless.extend_from_slice(&0u32.to_le_bytes()); // flags
    sectionless.extend_from_slice(&0u64.to_le_bytes()); // n
    sectionless.extend_from_slice(&(1u64 << 63).to_le_bytes()); // m
    sectionless.extend_from_slice(&0u32.to_le_bytes()); // section count
    assert_eq!(
        open_and_load("sectionless_spares.ssg", &sectionless).unwrap_err(),
        StoreError::MissingSection { section: ssr_store::format::SECTION_OUT }
    );
    let g = DiGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    let mut buf = Vec::new();
    StoreWriter::new(&g).write_to(&mut buf).unwrap();
    let lie = ssr_store::EliasFano::from_monotone(&[0, 1, 2, 2, 2]);
    let lying = replace_section(&buf, ssr_store::format::SECTION_OUT_OFFSETS, &lie.encode());
    assert!(matches!(
        open_and_load("offset_lie_spares.ssg", &lying),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn non_bijective_permutation_is_caught_at_open() {
    // A PERM section mapping every node to 0, re-checksummed: the
    // bijection validation must reject it at open, typed.
    let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let perm = ssr_graph::Permutation::from_old2new(vec![2, 0, 1]).unwrap();
    let mut buf = Vec::new();
    StoreWriter::new(&g).permutation(perm, "bfs").write_to(&mut buf).unwrap();
    let spliced = replace_section(&buf, ssr_store::format::SECTION_PERM, &[0u8, 0, 0]);
    match open_and_load("perm_lie.ssg", &spliced) {
        Err(StoreError::Corrupt { message }) => {
            assert!(message.contains("permutation"), "{message}")
        }
        other => panic!("non-bijective permutation must be Corrupt, got {other:?}"),
    }
}

#[test]
fn permuted_store_survives_truncation_and_flip_sweeps() {
    // The same truncation + bit-flip battery, against a permuted v2
    // store (six sections including PERM): still typed errors only.
    let g = DiGraph::from_edges(
        32,
        &(0u32..31).map(|v| (v, v + 1)).chain((0..16).map(|v| (v * 2, v))).collect::<Vec<_>>(),
    )
    .unwrap();
    let perm = ssr_graph::perm::degree_order(&g);
    let mut bytes = Vec::new();
    StoreWriter::new(&g).permutation(perm, "degree").write_to(&mut bytes).unwrap();
    assert!(open_and_load("perm_pristine.ssg", &bytes).is_ok());
    for len in (0..bytes.len() - 1).step_by(3) {
        let err = open_and_load("perm_trunc.ssg", &bytes[..len])
            .expect_err(&format!("prefix of {len} bytes must not load"));
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Io(_)
            ),
            "prefix {len}: unexpected error {err:?}"
        );
    }
    let payload_start = 36 + 32 * 6;
    for at in (payload_start..bytes.len()).step_by(11) {
        let mut copy = bytes.clone();
        copy[at] ^= 0x40;
        match open_and_load("perm_flip.ssg", &copy) {
            Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Corrupt { .. }) => {}
            other => panic!("flip at {at}: expected typed error, got {other:?}"),
        }
    }
}

/// The documented checksum construction (kept in sync with
/// `ssr-store`'s `checksum64` via the golden-value unit test there).
fn ssr_store_checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[test]
fn missing_adjacency_section_is_typed() {
    // Handcraft a store whose table only lists the META section.
    let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
    let mut buf = Vec::new();
    StoreWriter::new(&g).write_to(&mut buf).unwrap();
    // Rewrite section ids OUT→99 so the required-section lookup fails.
    // (Entry 0 id lives at offset 36.)
    buf[36..40].copy_from_slice(&99u32.to_le_bytes());
    let err = open_and_load("missing.ssg", &buf).unwrap_err();
    assert_eq!(err, StoreError::MissingSection { section: ssr_store::format::SECTION_OUT });
}

#[test]
fn verify_walks_every_section() {
    let bytes = sample_bytes();
    let path = scratch("verify.ssg");
    std::fs::write(&path, &bytes).unwrap();
    assert!(StoreReader::open(&path).unwrap().verify().is_ok());
    // Corrupt the *last* byte (deep in the META section, which load_full
    // never touches after open): verify still catches it.
    let mut copy = bytes;
    let last = copy.len() - 1;
    copy[last] ^= 0x01;
    std::fs::write(&path, &copy).unwrap();
    // Meta is decoded at open time, so the checksum trips immediately.
    let result = StoreReader::open(&path).map(|_| ());
    assert!(
        matches!(result, Err(StoreError::ChecksumMismatch { .. })),
        "tampered meta must fail at open: {result:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn in_section_disagreeing_with_out_is_caught() {
    // Two graphs with identical degrees but different edges: splice the
    // IN section of one into the store of the other. Per-section
    // checksums pass (each section is internally pristine) — only the
    // cross-direction digest can notice.
    let g1 = DiGraph::from_edges(4, &[(0, 2), (1, 3)]).unwrap();
    let g2 = DiGraph::from_edges(4, &[(0, 3), (1, 2)]).unwrap();
    let (mut b1, mut b2) = (Vec::new(), Vec::new());
    StoreWriter::new(&g1).write_to(&mut b1).unwrap();
    StoreWriter::new(&g2).write_to(&mut b2).unwrap();
    assert_eq!(b1.len(), b2.len(), "same shape ⇒ same layout");
    // IN section: second table entry; splice payload and checksum.
    let entry = 36 + 32;
    let off = u64::from_le_bytes(b1[entry + 8..entry + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(b1[entry + 16..entry + 24].try_into().unwrap()) as usize;
    let mut spliced = b1.clone();
    spliced[off..off + len].copy_from_slice(&b2[off..off + len]);
    spliced[entry + 24..entry + 32].copy_from_slice(&b2[entry + 24..entry + 32]);
    match open_and_load("spliced.ssg", &spliced) {
        Err(StoreError::Corrupt { message }) => {
            assert!(message.contains("different edge sets"), "{message}");
        }
        other => panic!("spliced directions must be caught, got {other:?}"),
    }
}
