//! Loading graphs back out of the `.ssg` container.

use crate::checksum::checksum64;
use crate::ef::EliasFano;
use crate::format::{
    Header, SectionInfo, FORMAT_VERSION_V1, SECTION_IN, SECTION_IN_OFFSETS, SECTION_META,
    SECTION_OUT, SECTION_OUT_OFFSETS, SECTION_PERM,
};
use crate::varint::read_varint;
use crate::StoreError;
use ssr_graph::{CsrBuffers, DiGraph, NodeId, Permutation};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// A handle on an opened store file.
///
/// [`StoreReader::open`] reads and validates only the header, section
/// table, metadata, and (for v2) the small offset-index and permutation
/// sections; adjacency payloads stay on disk until a load method asks for
/// them. [`StoreReader::load_full`] is one sequential read plus an
/// in-place gap decode — no text parsing, no re-sort;
/// [`StoreReader::load_out_only`] seeks straight to the OUT section via
/// the table and never touches the in-adjacency bytes.
///
/// Stores written with a layout permutation decode back into the
/// **original** id space here: the PERM section records the bijection and
/// every load remaps and re-sorts rows, so callers cannot tell a permuted
/// file from a plain one (beyond its smaller size).
pub struct StoreReader {
    file: std::fs::File,
    file_len: u64,
    header: Header,
    meta: Vec<(String, String)>,
    out_index: Option<EliasFano>,
    in_index: Option<EliasFano>,
    perm: Option<Permutation>,
}

/// Just the out-direction of a stored graph (what
/// [`StoreReader::load_out_only`] returns): forward-walk workloads (RWR
/// push, reachability probes, degree stats) skip decoding — and reading —
/// the in-adjacency section entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutAdjacency {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl OutAdjacency {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The sorted successor list `O(v)`.
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `|O(v)|`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }
}

/// What [`StoreReader::verify`] reports after checking every section.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Sections checked (checksum + structural decode where applicable).
    pub sections: usize,
    /// Total payload bytes across sections.
    pub payload_bytes: u64,
    /// Node count from the header.
    pub nodes: usize,
    /// Edge count from the header.
    pub edges: usize,
    /// Stored adjacency bits per directed edge, counting **both**
    /// directions' payloads against `2m` stored ids (comparable to the
    /// in-memory CSR's 32 bits/id and to webgraph-style numbers).
    pub bits_per_edge: f64,
    /// Whether the file stores a relabeled layout (PERM section present;
    /// the bijection was validated at open, the offset-index block
    /// ranges by the structural decode here).
    pub permuted: bool,
}

impl StoreReader {
    /// Opens a store file: validates magic, version, section-table
    /// bounds, the metadata section, and — for v2 — the offset indexes
    /// (entry count, first/last values) and the permutation bijection.
    /// Adjacency payloads are not read yet.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<StoreReader, StoreError> {
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        // One bounded read covers magic + fixed header + section table.
        let mut prefix = vec![0u8; (Header::encoded_len(0)).min(file_len as usize)];
        file.read_exact(&mut prefix)?;
        let count = match Header::decode(&prefix) {
            Ok(h) => h.sections.len(), // 0-section file: already complete
            Err(StoreError::Truncated { .. }) if prefix.len() >= Header::encoded_len(0) => {
                // Table extends past the fixed header: read the rest.
                u32::from_le_bytes(prefix[32..36].try_into().expect("fixed header present"))
                    as usize
            }
            Err(e) => return Err(e),
        };
        let full_len = Header::encoded_len(count);
        if (file_len as usize) < full_len {
            return Err(StoreError::Truncated { context: "section table" });
        }
        prefix.resize(full_len, 0);
        file.read_exact(&mut prefix[Header::encoded_len(0)..])?;
        let header = Header::decode(&prefix)?;
        // The fixed header carries no checksum, so its counts must be
        // sanity-bounded *before* anything allocates from them: node ids
        // must fit `NodeId`, and each stored id costs at least one payload
        // byte in each adjacency section (v1 additionally spends a degree
        // varint per node) — a flipped high bit in n or m fails here
        // instead of driving a terabyte `Vec::with_capacity`.
        if header.nodes > u64::from(u32::MAX) + 1 {
            return Err(StoreError::Corrupt {
                message: format!("header claims {} nodes (ids must fit u32)", header.nodes),
            });
        }
        for s in &header.sections {
            let end = s.offset.checked_add(s.len);
            if s.offset < full_len as u64 || end.is_none() || end.unwrap() > file_len {
                return Err(StoreError::Truncated { context: "section payload" });
            }
            let min_cost = if header.version == FORMAT_VERSION_V1 {
                header.nodes.checked_add(header.edges)
            } else {
                Some(header.edges)
            };
            if (s.id == SECTION_OUT || s.id == SECTION_IN)
                && min_cost.is_none_or(|cost| cost > s.len)
            {
                return Err(StoreError::Corrupt {
                    message: format!(
                        "header claims n={} m={} but section {} holds only {} bytes",
                        header.nodes, header.edges, s.id, s.len
                    ),
                });
            }
        }
        let mut reader = StoreReader {
            file,
            file_len,
            header,
            meta: Vec::new(),
            out_index: None,
            in_index: None,
            perm: None,
        };
        reader.meta = match reader.header.section(SECTION_META) {
            Some(info) => decode_meta(&reader.read_section(info)?)?,
            None => Vec::new(),
        };
        if reader.header.version > FORMAT_VERSION_V1 {
            reader.out_index = reader.load_offset_index(SECTION_OUT, SECTION_OUT_OFFSETS)?;
            reader.in_index = reader.load_offset_index(SECTION_IN, SECTION_IN_OFFSETS)?;
            reader.perm = reader.load_perm()?;
        }
        Ok(reader)
    }

    /// Node count from the header.
    pub fn node_count(&self) -> usize {
        self.header.nodes as usize
    }

    /// Edge count from the header.
    pub fn edge_count(&self) -> usize {
        self.header.edges as usize
    }

    /// Format version of the file.
    pub fn version(&self) -> u32 {
        self.header.version
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The section table, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.header.sections
    }

    /// All metadata pairs, in written order.
    pub fn metadata(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Looks up one metadata value.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The layout permutation (original id → stored id) if the file was
    /// written with one. Loads remap automatically; this is for tools
    /// that report on the layout itself.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.perm.as_ref()
    }

    /// Whether the stored layout is relabeled (PERM section present).
    pub fn is_permuted(&self) -> bool {
        self.perm.is_some()
    }

    /// Total bytes of the two adjacency sections.
    pub fn adjacency_bytes(&self) -> u64 {
        [SECTION_OUT, SECTION_IN]
            .iter()
            .filter_map(|&id| self.header.section(id))
            .map(|s| s.len)
            .sum()
    }

    /// Total bytes of the two offset-index sections (0 for v1 files).
    pub fn offset_index_bytes(&self) -> u64 {
        [SECTION_OUT_OFFSETS, SECTION_IN_OFFSETS]
            .iter()
            .filter_map(|&id| self.header.section(id))
            .map(|s| s.len)
            .sum()
    }

    /// Stored adjacency bits per directed edge across both directions
    /// (`0` for edgeless graphs).
    pub fn bits_per_edge(&self) -> f64 {
        if self.header.edges == 0 {
            return 0.0;
        }
        // Both sections together hold 2m ids; report bits per stored id
        // so the number is directly comparable to the 32-bit in-memory id.
        // Float arithmetic throughout: a hostile header's m can be any
        // u64, and `2 * m` in integers would overflow (this accessor runs
        // on merely *opened* stores, before any load validates m).
        (self.adjacency_bytes() as f64 * 8.0) / (2.0 * self.header.edges as f64)
    }

    /// Dismantles the reader into its validated parts — the
    /// random-access store reuses the open-time validation instead of
    /// redoing it.
    pub(crate) fn into_parts(self) -> ReaderParts {
        ReaderParts {
            header: self.header,
            meta: self.meta,
            out_index: self.out_index,
            in_index: self.in_index,
            perm: self.perm,
        }
    }

    /// Reads one section payload and verifies its checksum.
    fn read_section(&mut self, info: SectionInfo) -> Result<Vec<u8>, StoreError> {
        let mut payload = Vec::new();
        self.read_section_into(info, &mut payload)?;
        Ok(payload)
    }

    /// [`Self::read_section`] into `payload`, which is overwritten and
    /// grows only when the section is longer than its capacity.
    fn read_section_into(
        &mut self,
        info: SectionInfo,
        payload: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(info.offset))?;
        payload.clear();
        payload.resize(info.len as usize, 0);
        self.file.read_exact(payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated { context: "section payload" }
            } else {
                StoreError::Io(e.to_string())
            }
        })?;
        if checksum64(payload) != info.checksum {
            return Err(StoreError::ChecksumMismatch { section: info.id });
        }
        Ok(())
    }

    fn required(&self, id: u32) -> Result<SectionInfo, StoreError> {
        self.header.section(id).ok_or(StoreError::MissingSection { section: id })
    }

    /// Reads and structurally validates one v2 offset-index section
    /// (present iff the matching adjacency section is). Entry count and
    /// the first/last values are pinned here; the index is load-bearing
    /// for v2 decodes (blocks carry no degree varint), so every decode
    /// additionally proves each claimed range holds a whole number of
    /// varints and the directions cross-agree.
    fn load_offset_index(
        &mut self,
        adjacency_id: u32,
        index_id: u32,
    ) -> Result<Option<EliasFano>, StoreError> {
        let Some(adjacency) = self.header.section(adjacency_id) else {
            return Ok(None);
        };
        let info = self.required(index_id)?;
        let payload = self.read_section(info)?;
        let n = self.node_count();
        let ef = EliasFano::decode(&payload, n + 1)?;
        if ef.len() != n + 1 {
            return Err(StoreError::Corrupt {
                message: format!(
                    "offset index {index_id} holds {} entries for {n} nodes",
                    ef.len()
                ),
            });
        }
        if ef.get(0) != 0 || ef.get(n) != adjacency.len {
            return Err(StoreError::Corrupt {
                message: format!(
                    "offset index {index_id} spans {}..{} but section {adjacency_id} holds {} bytes",
                    ef.get(0),
                    ef.get(n),
                    adjacency.len
                ),
            });
        }
        Ok(Some(ef))
    }

    /// Reads and validates the optional PERM section: exactly `n`
    /// varints forming a bijection on `0..n`.
    fn load_perm(&mut self) -> Result<Option<Permutation>, StoreError> {
        let Some(info) = self.header.section(SECTION_PERM) else {
            return Ok(None);
        };
        let payload = self.read_section(info)?;
        let n = self.node_count();
        let mut old2new = Vec::with_capacity(n);
        let mut pos = 0usize;
        for old in 0..n {
            let v = read_varint(&payload, &mut pos).ok_or_else(|| StoreError::Corrupt {
                message: format!("permutation section ends inside entry {old}"),
            })?;
            if v > u64::from(u32::MAX) {
                return Err(StoreError::Corrupt {
                    message: format!("permutation maps node {old} to {v} (does not fit u32)"),
                });
            }
            old2new.push(v as NodeId);
        }
        if pos != payload.len() {
            return Err(StoreError::Corrupt {
                message: "permutation section has trailing bytes".into(),
            });
        }
        Permutation::from_old2new(old2new)
            .map(Some)
            .map_err(|e| StoreError::Corrupt { message: format!("permutation section: {e}") })
    }

    /// Decodes one adjacency direction (stored id space) over `offsets`
    /// and `adjacency`, reading the section through `payload`, and returns
    /// the direction's edge digest. All three vectors are overwritten.
    fn decode_direction(
        &mut self,
        id: u32,
        payload: &mut Vec<u8>,
        offsets: &mut Vec<usize>,
        adjacency: &mut Vec<NodeId>,
    ) -> Result<u64, StoreError> {
        let n = self.node_count();
        let m = self.edge_count();
        let info = self.required(id)?;
        let direction = if id == SECTION_OUT { Direction::Out } else { Direction::In };
        self.read_section_into(info, payload)?;
        offsets.clear();
        offsets.reserve_exact(n + 1);
        adjacency.clear();
        adjacency.reserve_exact(m);
        if self.header.version == FORMAT_VERSION_V1 {
            decode_adjacency_v1(payload, n, m, direction, offsets, adjacency)
        } else {
            // v2 blocks carry no degree varint; the offset index (validated
            // at open) delimits them.
            let index = match direction {
                Direction::Out => self.out_index.as_ref(),
                Direction::In => self.in_index.as_ref(),
            };
            let index = index.expect("v2 open validated the offset indexes");
            decode_adjacency_v2(payload, n, m, direction, index, offsets, adjacency)
        }
    }

    /// Decodes the full graph: both CSR directions gap-decoded straight
    /// into [`DiGraph`] arrays.
    ///
    /// The decode itself establishes every structural invariant
    /// (sortedness and id range fall out of gap decoding; counts are
    /// checked against the header), and an order-independent digest
    /// accumulated over both directions proves they describe the same
    /// edge set — so assembly goes through [`DiGraph::from_csr_trusted`]
    /// without a third validation pass over the arrays. Permuted stores
    /// are remapped (and rows re-sorted) into the original id space.
    pub fn load_full(&mut self) -> Result<DiGraph, StoreError> {
        self.load_full_into(&mut CsrBuffers::default(), &mut Vec::new())
    }

    /// [`Self::load_full`], decoded into `spare`'s arrays, with each
    /// adjacency section read through `section`; both may hold anything.
    /// A load that succeeds on an unpermuted store takes all four of
    /// `spare`'s vectors as the graph's (see [`CsrBuffers`]), so a run of
    /// loads of one size, each handed the arrays the last graph gave up,
    /// allocates nothing large. A permuted store decodes in `spare` and
    /// remaps into fresh arrays, leaving `spare` its vectors. A failed
    /// load leaves `spare` and `section` their vectors, with contents
    /// undefined. Every check of [`Self::load_full`] runs, and fails with
    /// the same error.
    pub fn load_full_into(
        &mut self,
        spare: &mut CsrBuffers,
        section: &mut Vec<u8>,
    ) -> Result<DiGraph, StoreError> {
        let out = self.decode_direction(
            SECTION_OUT,
            section,
            &mut spare.out_offsets,
            &mut spare.out_targets,
        )?;
        let inc = self.decode_direction(
            SECTION_IN,
            section,
            &mut spare.in_offsets,
            &mut spare.in_sources,
        )?;
        if out != inc {
            return Err(StoreError::Corrupt {
                message: "out- and in-adjacency sections describe different edge sets".into(),
            });
        }
        let n = self.node_count();
        Ok(match &self.perm {
            None => {
                let CsrBuffers { out_offsets, out_targets, in_offsets, in_sources } =
                    std::mem::take(spare);
                DiGraph::from_csr_trusted(n, out_offsets, out_targets, in_offsets, in_sources)
            }
            Some(perm) => {
                let (oo, ot) = remap_to_original(n, &spare.out_offsets, &spare.out_targets, perm);
                let (io, is) = remap_to_original(n, &spare.in_offsets, &spare.in_sources, perm);
                DiGraph::from_csr_trusted(n, oo, ot, io, is)
            }
        })
    }

    /// Decodes only the out-direction, skipping the in-adjacency section
    /// entirely (one seek via the section table).
    pub fn load_out_only(&mut self) -> Result<OutAdjacency, StoreError> {
        let n = self.node_count();
        let (mut offsets, mut targets) = (Vec::new(), Vec::new());
        self.decode_direction(SECTION_OUT, &mut Vec::new(), &mut offsets, &mut targets)?;
        if let Some(perm) = &self.perm {
            (offsets, targets) = remap_to_original(n, &offsets, &targets, perm);
        }
        Ok(OutAdjacency { n, offsets, targets })
    }

    /// Checks every section's checksum and fully decodes both adjacency
    /// directions (including the cross-direction consistency digest). On
    /// v2 files the offset indexes delimit the blocks, so the decode
    /// itself proves every claimed byte range holds exactly a whole
    /// number of varints, the ranges tile the section, and both
    /// directions agree on the edge set — on top of the bijection check
    /// open performed on the permutation.
    pub fn verify(&mut self) -> Result<VerifyReport, StoreError> {
        // Checksum the sections the structural pass below won't read
        // anyway (META, offset indexes, PERM, future/unknown ids) —
        // the structural pass checksums the two adjacency payloads as it
        // reads them, and re-reading the largest sections twice would
        // double verify's I/O for no added coverage.
        for info in self.header.sections.clone() {
            if info.id != SECTION_OUT && info.id != SECTION_IN {
                self.read_section(info)?;
            }
        }
        // Structural pass: a decode of both directions catches what
        // checksums cannot (a checksum only proves the bytes are the ones
        // written).
        let g = self.load_full()?;
        if g.node_count() != self.node_count() || g.edge_count() != self.edge_count() {
            return Err(StoreError::Corrupt {
                message: format!(
                    "header claims n={} m={} but payload decodes to n={} m={}",
                    self.node_count(),
                    self.edge_count(),
                    g.node_count(),
                    g.edge_count()
                ),
            });
        }
        Ok(VerifyReport {
            sections: self.header.sections.len(),
            payload_bytes: self.header.sections.iter().map(|s| s.len).sum(),
            nodes: g.node_count(),
            edges: g.edge_count(),
            bits_per_edge: self.bits_per_edge(),
            permuted: self.perm.is_some(),
        })
    }
}

/// Reorders a decoded (stored-space) CSR direction into the original id
/// space: row `u` becomes the stored row of `perm.to_new(u)` with every
/// id mapped through `perm.to_old` and re-sorted (the bijection preserves
/// set size, so no dedup is needed).
fn remap_to_original(
    n: usize,
    offsets: &[usize],
    adjacency: &[NodeId],
    perm: &Permutation,
) -> (Vec<usize>, Vec<NodeId>) {
    let mut offsets_o = Vec::with_capacity(n + 1);
    let mut adj_o: Vec<NodeId> = Vec::with_capacity(adjacency.len());
    offsets_o.push(0);
    for old in 0..n as NodeId {
        let p = perm.to_new(old) as usize;
        let start = adj_o.len();
        adj_o.extend(adjacency[offsets[p]..offsets[p + 1]].iter().map(|&w| perm.to_old(w)));
        adj_o[start..].sort_unstable();
        offsets_o.push(adj_o.len());
    }
    (offsets_o, adj_o)
}

/// Which adjacency direction a section encodes — determines how the
/// `(source, target)` pair is formed for the cross-direction digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Section lists successors: edge is `(node, decoded id)`.
    Out,
    /// Section lists predecessors: edge is `(decoded id, node)`.
    In,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::Out => "out",
            Direction::In => "in",
        }
    }
}

/// The validated open-time state of a reader, handed to the
/// random-access store by [`StoreReader::into_parts`].
pub(crate) struct ReaderParts {
    pub(crate) header: Header,
    pub(crate) meta: Vec<(String, String)>,
    pub(crate) out_index: Option<EliasFano>,
    pub(crate) in_index: Option<EliasFano>,
    pub(crate) perm: Option<Permutation>,
}

/// Decodes one v1 gap-coded CSR direction onto the empty `offsets` and
/// `adjacency`, validating everything a hostile payload could get wrong
/// *during* the decode: truncation, ordering violations (zero gaps), id
/// range, overflow, and the exact count the header promises. Returns the
/// order-independent digest of the direction's edge set.
fn decode_adjacency_v1(
    payload: &[u8],
    n: usize,
    m: usize,
    direction: Direction,
    offsets: &mut Vec<usize>,
    adjacency: &mut Vec<NodeId>,
) -> Result<u64, StoreError> {
    let side = direction.name();
    let corrupt = |message: String| StoreError::Corrupt { message };
    let mut digest = 0u64;
    offsets.push(0);
    let mut pos = 0usize;
    for v in 0..n {
        let degree = read_varint(payload, &mut pos)
            .ok_or_else(|| corrupt(format!("{side}-section ends inside node {v}'s degree")))?;
        // Budget check in subtraction form: `len + degree` could overflow
        // on a hostile 10-byte degree varint, `m - len` cannot (the
        // invariant `len <= m` holds throughout).
        if degree > (m - adjacency.len()) as u64 {
            return Err(corrupt(format!(
                "{side}-section holds more than the {m} ids the header promises"
            )));
        }
        let mut prev = 0u64;
        for i in 0..degree {
            let delta = read_varint(payload, &mut pos)
                .ok_or_else(|| corrupt(format!("{side}-section ends inside node {v}'s list")))?;
            let value = if i == 0 {
                delta
            } else {
                if delta == 0 {
                    return Err(corrupt(format!(
                        "{side}-adjacency of node {v} has a zero gap (duplicate neighbor)"
                    )));
                }
                prev.checked_add(delta)
                    .ok_or_else(|| corrupt(format!("{side}-adjacency of node {v} overflows")))?
            };
            if value >= n as u64 {
                return Err(corrupt(format!(
                    "{side}-adjacency of node {v} references node {value} >= {n}"
                )));
            }
            // Same mixer DiGraph::from_csr validates with, so the debug
            // cross-check and this inline check agree on "same edge set".
            digest ^= match direction {
                Direction::Out => ssr_graph::edge_digest(v as NodeId, value as NodeId),
                Direction::In => ssr_graph::edge_digest(value as NodeId, v as NodeId),
            };
            adjacency.push(value as NodeId);
            prev = value;
        }
        offsets.push(adjacency.len());
    }
    if pos != payload.len() {
        return Err(corrupt(format!(
            "{side}-section has {} trailing bytes after node {n}",
            payload.len() - pos
        )));
    }
    if adjacency.len() != m {
        return Err(corrupt(format!(
            "{side}-section decodes {} ids but the header promises {m}",
            adjacency.len()
        )));
    }
    Ok(digest)
}

/// Decodes one v2 CSR direction onto the empty `offsets` and `adjacency`,
/// returning its edge digest. Blocks carry no degree varint — the
/// offset index delimits each node's byte range and the varints inside
/// self-delimit — so the index is load-bearing here: every claimed range
/// must decode exactly (no truncated varint, no trailing bytes), each id
/// must be in range and ascending (the `gap − 1` coding cannot express
/// duplicates), and the total must match the header. The cross-direction
/// digest then proves both sections (and both indexes) describe one edge
/// set.
fn decode_adjacency_v2(
    payload: &[u8],
    n: usize,
    m: usize,
    direction: Direction,
    index: &EliasFano,
    offsets: &mut Vec<usize>,
    adjacency: &mut Vec<NodeId>,
) -> Result<u64, StoreError> {
    let side = direction.name();
    let corrupt = |message: String| StoreError::Corrupt { message };
    let mut digest = 0u64;
    offsets.push(0);
    // Walk the index sequentially — `get` would pay a select per node.
    let mut bounds = index.iter();
    let mut start = bounds.next().expect("open validated the index holds n + 1 entries");
    for v in 0..n {
        let end = bounds.next().expect("open validated the index holds n + 1 entries");
        // Open pinned the index's first/last entries to the section
        // bounds, but a hostile low-bits payload can still make interior
        // entries non-monotone or out of range.
        if start > end || end > payload.len() as u64 {
            return Err(corrupt(format!(
                "{side}-offset index claims block {v} spans {start}..{end} in a {}-byte payload",
                payload.len()
            )));
        }
        let block = &payload[start as usize..end as usize];
        let mut pos = 0usize;
        let mut prev = 0u64;
        let mut first = true;
        while pos < block.len() {
            if adjacency.len() == m {
                return Err(corrupt(format!(
                    "{side}-section holds more than the {m} ids the header promises"
                )));
            }
            let delta = read_varint(block, &mut pos)
                .ok_or_else(|| corrupt(format!("{side}-block of node {v} ends inside a varint")))?;
            let value = if first {
                first = false;
                // v2: signed delta from the node's own id.
                let signed = unzigzag(delta);
                let value = (v as i64)
                    .checked_add(signed)
                    .ok_or_else(|| corrupt(format!("{side}-adjacency of node {v} overflows")))?;
                if value < 0 {
                    return Err(corrupt(format!(
                        "{side}-adjacency of node {v} references negative id {value}"
                    )));
                }
                value as u64
            } else {
                // v2 stores gap − 1: the minimum gap is implicit.
                prev.checked_add(delta)
                    .and_then(|x| x.checked_add(1))
                    .ok_or_else(|| corrupt(format!("{side}-adjacency of node {v} overflows")))?
            };
            if value >= n as u64 {
                return Err(corrupt(format!(
                    "{side}-adjacency of node {v} references node {value} >= {n}"
                )));
            }
            digest ^= match direction {
                Direction::Out => ssr_graph::edge_digest(v as NodeId, value as NodeId),
                Direction::In => ssr_graph::edge_digest(value as NodeId, v as NodeId),
            };
            adjacency.push(value as NodeId);
            prev = value;
        }
        offsets.push(adjacency.len());
        start = end;
    }
    if adjacency.len() != m {
        return Err(corrupt(format!(
            "{side}-section decodes {} ids but the header promises {m}",
            adjacency.len()
        )));
    }
    Ok(digest)
}

/// Inverse of the writer's zigzag map.
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decodes the metadata section written by the writer.
fn decode_meta(payload: &[u8]) -> Result<Vec<(String, String)>, StoreError> {
    let corrupt = |message: &str| StoreError::Corrupt { message: message.into() };
    let mut pos = 0usize;
    let count =
        read_varint(payload, &mut pos).ok_or_else(|| corrupt("meta section missing count"))?;
    let mut meta = Vec::new();
    for _ in 0..count {
        let mut read_string = || -> Result<String, StoreError> {
            let len = read_varint(payload, &mut pos)
                .ok_or_else(|| corrupt("meta string missing length"))?
                as usize;
            let end = pos.checked_add(len).filter(|&e| e <= payload.len());
            let end = end.ok_or_else(|| corrupt("meta string runs past the section"))?;
            let s = std::str::from_utf8(&payload[pos..end])
                .map_err(|_| corrupt("meta string is not UTF-8"))?
                .to_string();
            pos = end;
            Ok(s)
        };
        let key = read_string()?;
        let value = read_string()?;
        meta.push((key, value));
    }
    if pos != payload.len() {
        return Err(corrupt("meta section has trailing bytes"));
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreWriter, FORMAT_VERSION};
    use ssr_graph::perm::{bfs_order, degree_order};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ssr_store_reader_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    fn sample_graph() -> DiGraph {
        DiGraph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (5, 5), (0, 5)])
            .unwrap()
    }

    fn write_sample(name: &str) -> std::path::PathBuf {
        let path = tmp(name);
        StoreWriter::new(&sample_graph())
            .meta("dataset", "sample")
            .meta("divisor", "1")
            .write_file(&path)
            .unwrap();
        path
    }

    #[test]
    fn open_reads_header_and_meta_only() {
        let path = write_sample("open.ssg");
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.node_count(), 6);
        assert_eq!(r.edge_count(), 8);
        assert_eq!(r.version(), FORMAT_VERSION);
        assert_eq!(r.meta("dataset"), Some("sample"));
        assert_eq!(r.meta("divisor"), Some("1"));
        assert_eq!(r.meta("absent"), None);
        // OUT, IN, OUT_OFFSETS, IN_OFFSETS, META.
        assert_eq!(r.sections().len(), 5);
        assert!(r.bits_per_edge() > 0.0);
        assert!(r.offset_index_bytes() > 0);
        assert!(!r.is_permuted());
    }

    #[test]
    fn load_full_round_trips() {
        let path = write_sample("full.ssg");
        let g = StoreReader::open(&path).unwrap().load_full().unwrap();
        assert_eq!(g, sample_graph());
    }

    #[test]
    fn v1_store_still_round_trips() {
        let path = tmp("v1.ssg");
        StoreWriter::new(&sample_graph())
            .version(crate::format::FORMAT_VERSION_V1)
            .write_file(&path)
            .unwrap();
        let mut r = StoreReader::open(&path).unwrap();
        assert_eq!(r.version(), crate::format::FORMAT_VERSION_V1);
        assert_eq!(r.sections().len(), 3);
        assert_eq!(r.offset_index_bytes(), 0);
        assert_eq!(r.load_full().unwrap(), sample_graph());
        assert!(r.verify().unwrap().sections == 3);
    }

    #[test]
    fn permuted_store_round_trips_in_original_id_space() {
        let g = sample_graph();
        for (order, perm) in [("bfs", bfs_order(&g)), ("degree", degree_order(&g))] {
            let path = tmp(&format!("perm_{order}.ssg"));
            StoreWriter::new(&g).permutation(perm, order).write_file(&path).unwrap();
            let mut r = StoreReader::open(&path).unwrap();
            assert!(r.is_permuted());
            assert_eq!(r.meta(crate::meta_keys::PERM_ORDER), Some(order));
            assert_eq!(r.load_full().unwrap(), g, "order {order}");
            let out = r.load_out_only().unwrap();
            for v in 0..g.node_count() as NodeId {
                assert_eq!(out.out_neighbors(v), g.out_neighbors(v));
            }
            let report = r.verify().unwrap();
            assert!(report.permuted);
            assert_eq!(report.sections, 6);
        }
    }

    #[test]
    fn load_out_only_matches_full_graph() {
        let path = write_sample("out.ssg");
        let mut r = StoreReader::open(&path).unwrap();
        let out = r.load_out_only().unwrap();
        let g = sample_graph();
        assert_eq!(out.node_count(), g.node_count());
        assert_eq!(out.edge_count(), g.edge_count());
        for v in 0..g.node_count() as NodeId {
            assert_eq!(out.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(out.out_degree(v), g.out_degree(v));
        }
    }

    #[test]
    fn verify_reports_sections_and_density() {
        let path = write_sample("verify.ssg");
        let report = StoreReader::open(&path).unwrap().verify().unwrap();
        assert_eq!(report.sections, 5);
        assert_eq!((report.nodes, report.edges), (6, 8));
        assert!(report.payload_bytes > 0);
        assert!(report.bits_per_edge > 0.0 && report.bits_per_edge <= 32.0);
        assert!(!report.permuted);
    }

    #[test]
    fn empty_graph_round_trips() {
        let path = tmp("empty.ssg");
        let g = DiGraph::from_edges(0, &[]).unwrap();
        StoreWriter::new(&g).write_file(&path).unwrap();
        let mut r = StoreReader::open(&path).unwrap();
        assert_eq!(r.load_full().unwrap(), g);
        assert_eq!(r.bits_per_edge(), 0.0);
    }

    #[test]
    fn isolated_tail_nodes_survive() {
        let path = tmp("tail.ssg");
        let g = DiGraph::from_edges(10, &[(0, 1)]).unwrap();
        StoreWriter::new(&g).write_file(&path).unwrap();
        assert_eq!(StoreReader::open(&path).unwrap().load_full().unwrap(), g);
    }

    #[test]
    fn unzigzag_inverts_writer_map() {
        for v in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            let coded = ((v << 1) ^ (v >> 63)) as u64;
            assert_eq!(unzigzag(coded), v);
        }
    }
}
