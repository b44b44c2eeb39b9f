use crate::{GraphError, NodeId};

/// An immutable directed graph in compressed-sparse-row (CSR) form.
///
/// Both directions of adjacency are materialised:
///
/// * `out_*` — for each node `v`, the sorted list `O(v)` of successors,
/// * `in_*` — for each node `v`, the sorted list `I(v)` of predecessors.
///
/// Link-based similarity measures walk edges *against* their direction
/// ("two nodes are similar if they are referenced by similar nodes"), so the
/// in-adjacency is the hot structure; the out-adjacency is needed by P-Rank
/// and by RWR's forward walks.
///
/// Parallel edges are collapsed at construction; adjacency lists are sorted,
/// enabling `O(log d)` [`DiGraph::has_edge`] queries and deterministic
/// iteration order everywhere downstream.
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
}

/// Spare CSR arrays for a graph build to write into: the four vectors of a
/// [`DiGraph`], kept for their capacity only, so their contents mean
/// nothing. [`DiGraph::into_buffers`] turns a retired graph into spares;
/// [`DiGraph::with_delta_into`] and `ssr-store`'s `load_full_into` build
/// the next graph in them, so a run of graph versions of one size
/// allocates its arrays once. A build that uses the spares takes all four
/// vectors, growing any that is too small, and leaves empty ones behind.
#[derive(Debug, Default)]
pub struct CsrBuffers {
    /// Spare out-direction row offsets.
    pub out_offsets: Vec<usize>,
    /// Spare out-direction adjacency.
    pub out_targets: Vec<NodeId>,
    /// Spare in-direction row offsets.
    pub in_offsets: Vec<usize>,
    /// Spare in-direction adjacency.
    pub in_sources: Vec<NodeId>,
}

impl CsrBuffers {
    /// Bytes the four vectors hold allocated, at their capacity: `0`
    /// once a build has taken them.
    pub fn capacity_bytes(&self) -> usize {
        (self.out_offsets.capacity() + self.in_offsets.capacity()) * std::mem::size_of::<usize>()
            + (self.out_targets.capacity() + self.in_sources.capacity())
                * std::mem::size_of::<NodeId>()
    }
}

impl DiGraph {
    /// Builds a graph with `n` nodes from an edge list in any order.
    /// Duplicate edges are collapsed; self-loops are kept (callers that
    /// must forbid them use [`crate::GraphBuilder`]).
    ///
    /// A counting sort: targets are bucketed by source, and a row is
    /// sorted and deduplicated only when it arrives out of order. The
    /// in-direction is then filled in ascending source order, so its rows
    /// come out sorted without a pass of their own. Every vector is sized
    /// exactly.
    ///
    /// # Errors
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        for &(u, v) in edges {
            if (u as usize) >= n {
                return Err(GraphError::NodeOutOfRange { node: u, node_count: n });
            }
            if (v as usize) >= n {
                return Err(GraphError::NodeOutOfRange { node: v, node_count: n });
            }
        }
        let mut out_offsets = vec![0usize; n + 1];
        for &(u, _) in edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0 as NodeId; edges.len()];
        let mut cursor = out_offsets.clone();
        for &(u, v) in edges {
            out_targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        // Sort the rows that need it and close the gaps duplicates leave.
        let mut kept = 0;
        for u in 0..n {
            let (start, end) = (out_offsets[u], out_offsets[u + 1]);
            let row = &mut out_targets[start..end];
            let mut len = row.len();
            if row.windows(2).any(|w| w[0] >= w[1]) {
                row.sort_unstable();
                len = 0;
                for i in 0..row.len() {
                    if len == 0 || row[i] != row[len - 1] {
                        row[len] = row[i];
                        len += 1;
                    }
                }
            }
            if kept < start {
                out_targets.copy_within(start..start + len, kept);
            }
            out_offsets[u] = kept;
            kept += len;
        }
        out_offsets[n] = kept;
        out_targets.truncate(kept);
        out_targets.shrink_to_fit();
        let (in_offsets, in_sources) = transpose_csr(n, &out_offsets, &out_targets);
        Ok(DiGraph { n, out_offsets, out_targets, in_offsets, in_sources })
    }

    /// This graph with `add` and `remove` applied as one edit, plus the
    /// numbers of edges the edit actually added and removed, as
    /// `(graph, added, removed)`.
    ///
    /// Both lists may hold duplicates and may be in any order. An edge
    /// both added and removed ends present and counts once in each
    /// number. Adds of present edges and removals of absent ones (ids
    /// `>= n` included) change nothing and are not counted. Added edges
    /// may grow the node range, by at most two ids per distinct added
    /// edge, so every graph size stays proportional to its input.
    ///
    /// Only the rows the edit names are merged; the spans of adjacency
    /// between them are copied whole, in both directions. The result
    /// equals [`DiGraph::from_edges`] on the edited edge list, and every
    /// vector is sized exactly.
    ///
    /// # Errors
    /// [`GraphError::NodeGrowth`] if an added id lies past that bound.
    /// Nothing is allocated for the graph before this check.
    pub fn with_delta(
        &self,
        add: &[(NodeId, NodeId)],
        remove: &[(NodeId, NodeId)],
    ) -> Result<(DiGraph, usize, usize), GraphError> {
        self.with_delta_into(add, remove, &mut CsrBuffers::default())
    }

    /// [`DiGraph::with_delta`], built in `spare`'s arrays instead of fresh
    /// ones. The result and the counts are the same whatever `spare`
    /// holds. An accepted delta takes all four of `spare`'s vectors (see
    /// [`CsrBuffers`]), and allocates only where one is smaller than the
    /// new graph needs. A refused delta leaves `spare` untouched.
    ///
    /// # Errors
    /// [`GraphError::NodeGrowth`], as [`DiGraph::with_delta`].
    pub fn with_delta_into(
        &self,
        add: &[(NodeId, NodeId)],
        remove: &[(NodeId, NodeId)],
        spare: &mut CsrBuffers,
    ) -> Result<(DiGraph, usize, usize), GraphError> {
        let mut add = sorted_unique(add.iter().copied());
        let top = add.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
        let limit = self.n + 2 * add.len();
        if top > limit {
            return Err(GraphError::NodeGrowth { node: (top - 1) as NodeId, limit });
        }
        let n = self.n.max(top);
        let present = |&(u, v): &(NodeId, NodeId)| (u as usize) < self.n && self.has_edge(u, v);
        let mut remove = sorted_unique(remove.iter().copied().filter(present));
        let removed = remove.len();
        // What is left touches the graph: removals of present edges no add
        // restores, and adds of absent edges.
        remove.retain(|e| add.binary_search(e).is_err());
        add.retain(|e| !present(e));
        let added = add.len() + removed - remove.len();
        let spare = std::mem::take(spare);
        let (out_offsets, out_targets) = patch_rows(
            n,
            (&self.out_offsets, &self.out_targets),
            &add,
            &remove,
            (spare.out_offsets, spare.out_targets),
        );
        let reversed =
            |edges: &[(NodeId, NodeId)]| sorted_unique(edges.iter().map(|&(u, v)| (v, u)));
        let (in_offsets, in_sources) = patch_rows(
            n,
            (&self.in_offsets, &self.in_sources),
            &reversed(&add),
            &reversed(&remove),
            (spare.in_offsets, spare.in_sources),
        );
        Ok((DiGraph { n, out_offsets, out_targets, in_offsets, in_sources }, added, removed))
    }

    /// Gives up the graph's four CSR arrays as spares for a later build
    /// (see [`CsrBuffers`]).
    pub fn into_buffers(self) -> CsrBuffers {
        let DiGraph { out_offsets, out_targets, in_offsets, in_sources, .. } = self;
        CsrBuffers { out_offsets, out_targets, in_offsets, in_sources }
    }

    /// Rebuilds a graph directly from its four CSR arrays — the zero-parse
    /// load path used by `ssr-store` (the arrays come gap-decoded straight
    /// off disk, already sorted, so no re-sort happens).
    ///
    /// Validates everything a hostile or corrupted input could get wrong:
    /// offset monotonicity and bounds, per-node adjacency sortedness and
    /// id range, equal edge counts in both directions, and (via an
    /// order-independent per-edge digest) that the two directions describe
    /// the same edge set.
    ///
    /// # Errors
    /// [`GraphError::InvalidCsr`] describing the first inconsistency found.
    pub fn from_csr(
        n: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_sources: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        validate_csr_side(n, &out_offsets, &out_targets, "out")?;
        validate_csr_side(n, &in_offsets, &in_sources, "in")?;
        if out_targets.len() != in_sources.len() {
            return Err(GraphError::InvalidCsr(format!(
                "direction edge counts differ: out has {}, in has {}",
                out_targets.len(),
                in_sources.len()
            )));
        }
        // Order-independent digest over (u, v) pairs: both directions must
        // describe the same edge multiset. O(m), no allocation.
        let digest = |offsets: &[usize], adj: &[NodeId], reversed: bool| -> u64 {
            let mut acc = 0u64;
            for a in 0..n {
                for &b in &adj[offsets[a]..offsets[a + 1]] {
                    let (u, v) = if reversed { (b, a as NodeId) } else { (a as NodeId, b) };
                    acc ^= edge_digest(u, v);
                }
            }
            acc
        };
        if digest(&out_offsets, &out_targets, false) != digest(&in_offsets, &in_sources, true) {
            return Err(GraphError::InvalidCsr(
                "out- and in-adjacency describe different edge sets".into(),
            ));
        }
        Ok(DiGraph { n, out_offsets, out_targets, in_offsets, in_sources })
    }

    /// Assembles a graph from CSR arrays a decoder has **already
    /// validated** — the zero-copy tail of `ssr-store`'s load path, which
    /// establishes every [`DiGraph::from_csr`] invariant while gap-decoding
    /// (sortedness and id range fall out of the decode itself; direction
    /// agreement is checked with an inline digest).
    ///
    /// In debug builds this delegates to the validating constructor and
    /// panics on violations, so the test suite cross-checks every caller;
    /// release builds skip straight to assembly. A bad caller can produce
    /// wrong answers or index panics downstream, never memory unsafety
    /// (the crate forbids `unsafe`).
    pub fn from_csr_trusted(
        n: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_sources: Vec<NodeId>,
    ) -> Self {
        if cfg!(debug_assertions) {
            return Self::from_csr(n, out_offsets, out_targets, in_offsets, in_sources)
                .expect("from_csr_trusted caller violated a CSR invariant");
        }
        DiGraph { n, out_offsets, out_targets, in_offsets, in_sources }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of (distinct) directed edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// The sorted successor list `O(v)`.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// The sorted predecessor list `I(v)`.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// `|O(v)|`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// `|I(v)|`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Whether the directed edge `u -> v` exists. `O(log |O(u)|)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates all edges `(u, v)` in `(source, target)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterates node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n as NodeId
    }

    /// The transpose graph `Gᵀ` (every edge reversed): the two
    /// directions trade places.
    pub fn transpose(&self) -> DiGraph {
        DiGraph {
            n: self.n,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// The symmetrised graph: for every edge `u -> v`, both `u -> v` and
    /// `v -> u` are present. Models undirected graphs (e.g. DBLP
    /// co-authorship) in the directed framework, exactly as the paper does.
    pub fn symmetrized(&self) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> =
            self.edges().flat_map(|(u, v)| [(u, v), (v, u)]).collect();
        Self::from_edges(self.n, &edges).expect("reversed edges keep their ids in range")
    }

    /// True when for every edge `u -> v` the reverse edge also exists.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// The subgraph induced by `keep` (nodes renumbered densely in the order
    /// they appear in `keep`). Returns the subgraph and the old-id → new-id
    /// mapping (`None` for dropped nodes).
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (DiGraph, Vec<Option<NodeId>>) {
        let mut remap: Vec<Option<NodeId>> = vec![None; self.n];
        for (new, &old) in keep.iter().enumerate() {
            remap[old as usize] = Some(new as NodeId);
        }
        let mut edges = Vec::new();
        for &old_u in keep {
            let new_u = remap[old_u as usize].expect("keep node mapped");
            for &old_v in self.out_neighbors(old_u) {
                if let Some(new_v) = remap[old_v as usize] {
                    edges.push((new_u, new_v));
                }
            }
        }
        let sub =
            Self::from_edges(keep.len(), &edges).expect("renumbered ids are below keep.len()");
        (sub, remap)
    }

    /// Estimated resident bytes of the CSR arrays (used by the Fig. 6(h)
    /// memory experiment and the store-vs-memory size report).
    ///
    /// Counts **both** adjacency directions at their allocated capacity
    /// (not just length), so the number is honest about what the process
    /// actually holds: `2·(n+1)` offset words plus `2·m` node ids for an
    /// exactly-sized graph.
    pub fn estimated_bytes(&self) -> usize {
        self.out_offsets.capacity() * std::mem::size_of::<usize>()
            + self.in_offsets.capacity() * std::mem::size_of::<usize>()
            + self.out_targets.capacity() * std::mem::size_of::<NodeId>()
            + self.in_sources.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// The other direction of a sorted CSR: entry `j` of row `i` becomes
/// entry `i` of row `j`. Rows are visited in ascending order, so every
/// output row fills sorted.
fn transpose_csr(n: usize, offsets: &[usize], adj: &[NodeId]) -> (Vec<usize>, Vec<NodeId>) {
    let mut t_offsets = vec![0usize; n + 1];
    for &j in adj {
        t_offsets[j as usize + 1] += 1;
    }
    for j in 0..n {
        t_offsets[j + 1] += t_offsets[j];
    }
    let mut t_adj = vec![0 as NodeId; adj.len()];
    let mut cursor = t_offsets.clone();
    for i in 0..n {
        for &j in &adj[offsets[i]..offsets[i + 1]] {
            t_adj[cursor[j as usize]] = i as NodeId;
            cursor[j as usize] += 1;
        }
    }
    (t_offsets, t_adj)
}

/// The distinct pairs of `pairs`, sorted.
fn sorted_unique(pairs: impl Iterator<Item = (NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
    let mut pairs: Vec<(NodeId, NodeId)> = pairs.collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// One CSR direction `(offsets, adj)` with `add` merged in and `remove`
/// taken out, grown to `n` rows, written over the two vectors it is
/// handed last. Both edit lists are sorted `(row, entry)` pairs; every
/// `add` entry is absent from its row and every `remove` entry present.
/// Only the rows they name are merged: the adjacency between them is
/// copied as whole spans, whose offsets shift by the net change before
/// them.
fn patch_rows(
    n: usize,
    (offsets, adj): (&[usize], &[NodeId]),
    mut add: &[(NodeId, NodeId)],
    mut remove: &[(NodeId, NodeId)],
    (mut new_offsets, mut new_adj): (Vec<usize>, Vec<NodeId>),
) -> (Vec<usize>, Vec<NodeId>) {
    // Rows past the old node range are empty.
    let old_start = |row: usize| offsets[row.min(offsets.len() - 1)];
    new_offsets.clear();
    new_offsets.reserve_exact(n + 1);
    new_adj.clear();
    new_adj.reserve_exact(adj.len() + add.len() - remove.len());
    new_offsets.push(0);
    let mut row = 0;
    while row < n {
        let next = match (add.first(), remove.first()) {
            (Some(a), Some(r)) => a.0.min(r.0) as usize,
            (Some(e), None) | (None, Some(e)) => e.0 as usize,
            (None, None) => n,
        };
        // Rows `row..next` are untouched.
        let (from, start) = (old_start(row), new_adj.len());
        new_adj.extend_from_slice(&adj[from..old_start(next)]);
        new_offsets.extend((row + 1..=next).map(|r| start + old_start(r) - from));
        if next == n {
            break;
        }
        let in_row = |edits: &[(NodeId, NodeId)]| edits.partition_point(|e| e.0 as usize == next);
        let (ins, rest) = add.split_at(in_row(add));
        add = rest;
        let (del, rest) = remove.split_at(in_row(remove));
        remove = rest;
        let mut ins = ins.iter().map(|e| e.1).peekable();
        let mut del = del.iter().map(|e| e.1).peekable();
        for &x in &adj[old_start(next)..old_start(next + 1)] {
            while let Some(y) = ins.next_if(|&y| y < x) {
                new_adj.push(y);
            }
            if del.next_if_eq(&x).is_none() {
                new_adj.push(x);
            }
        }
        new_adj.extend(ins);
        new_offsets.push(new_adj.len());
        row = next + 1;
    }
    (new_offsets, new_adj)
}

/// Checks one CSR direction: offset shape, monotonicity, strictly
/// ascending adjacency, node ids in range.
fn validate_csr_side(
    n: usize,
    offsets: &[usize],
    adjacency: &[NodeId],
    side: &str,
) -> Result<(), GraphError> {
    let fail = |message: String| Err(GraphError::InvalidCsr(message));
    if offsets.len() != n + 1 {
        return fail(format!("{side}-offsets has length {} for {n} nodes", offsets.len()));
    }
    if offsets[0] != 0 {
        return fail(format!("{side}-offsets does not start at 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return fail(format!("{side}-offsets not monotone"));
    }
    if offsets[n] != adjacency.len() {
        return fail(format!(
            "{side}-offsets end at {} but adjacency holds {} ids",
            offsets[n],
            adjacency.len()
        ));
    }
    for v in 0..n {
        let list = &adjacency[offsets[v]..offsets[v + 1]];
        if list.windows(2).any(|w| w[0] >= w[1]) {
            return fail(format!("{side}-adjacency of node {v} not strictly ascending"));
        }
        if let Some(&last) = list.last() {
            if last as usize >= n {
                return fail(format!("{side}-adjacency of node {v} references node {last} >= {n}"));
            }
        }
    }
    Ok(())
}

/// Mixes one edge into a 64-bit value (SplitMix64 finalizer — good
/// avalanche, so xor-accumulation over edge sets detects direction
/// mismatches with overwhelming probability). Exported so decoders that
/// establish [`DiGraph::from_csr`]'s invariants themselves (`ssr-store`)
/// compute the *same* cross-direction digest this crate validates with.
#[inline]
pub fn edge_digest(u: NodeId, v: NodeId) -> u64 {
    let mut z = ((u as u64) << 32 | v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl std::fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.n)
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn adjacency_is_sorted_and_correct() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[NodeId]);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn out_of_range_is_error() {
        let err = DiGraph::from_edges(2, &[(0, 2)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 2, node_count: 2 });
    }

    #[test]
    fn has_edge_both_ways() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn transpose_reverses() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            assert!(t.has_edge(v, u));
        }
        // Transposing twice is the identity.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn symmetrized_has_both_directions() {
        let g = diamond().symmetrized();
        assert!(g.is_symmetric());
        assert_eq!(g.edge_count(), 8);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_are_fine() {
        let g = DiGraph::from_edges(5, &[(0, 1)]).unwrap();
        assert_eq!(g.in_degree(4), 0);
        assert_eq!(g.out_degree(4), 0);
    }

    #[test]
    fn self_loop_allowed_at_digraph_level() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1)]).unwrap();
        assert!(g.has_edge(0, 0));
        assert_eq!(g.in_neighbors(0), &[0]);
    }

    #[test]
    fn edges_iterator_in_order() {
        let g = diamond();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn from_csr_round_trips_the_diamond() {
        let g = diamond();
        let rebuilt = DiGraph::from_csr(
            4,
            g.out_offsets.clone(),
            g.out_targets.clone(),
            g.in_offsets.clone(),
            g.in_sources.clone(),
        )
        .unwrap();
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn from_csr_rejects_structural_corruption() {
        let g = diamond();
        let csr = || {
            (
                g.out_offsets.clone(),
                g.out_targets.clone(),
                g.in_offsets.clone(),
                g.in_sources.clone(),
            )
        };
        let invalid = |r: Result<DiGraph, GraphError>| {
            assert!(matches!(r.unwrap_err(), GraphError::InvalidCsr(_)));
        };
        // Wrong offset length.
        let (mut oo, ot, io, is) = csr();
        oo.pop();
        invalid(DiGraph::from_csr(4, oo, ot, io, is));
        // Non-monotone offsets.
        let (mut oo, ot, io, is) = csr();
        oo[1] = 3;
        oo[2] = 1;
        invalid(DiGraph::from_csr(4, oo, ot, io, is));
        // Unsorted adjacency.
        let (oo, mut ot, io, is) = csr();
        ot.swap(0, 1);
        invalid(DiGraph::from_csr(4, oo, ot, io, is));
        // Out-of-range target.
        let (oo, mut ot, io, is) = csr();
        ot[0] = 9;
        invalid(DiGraph::from_csr(4, oo, ot, io, is));
        // Directions that disagree on the edge set: node 1's in-list
        // claims the edge 2 -> 1, which the out-direction never recorded.
        let (oo, ot, io, mut is) = csr();
        is[0] = 2;
        invalid(DiGraph::from_csr(4, oo, ot, io, is));
    }

    #[test]
    fn estimated_bytes_counts_both_directions() {
        let g = diamond(); // n = 4, m = 4, exactly-sized vectors
        let words = std::mem::size_of::<usize>();
        let ids = std::mem::size_of::<NodeId>();
        assert_eq!(g.estimated_bytes(), 2 * 5 * words + 2 * 4 * ids);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = diamond();
        let (sub, remap) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(sub.node_count(), 3);
        // surviving edges: 0->1, 1->3 (node 2 dropped)
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(remap[2], None);
        let n0 = remap[0].unwrap();
        let n1 = remap[1].unwrap();
        let n3 = remap[3].unwrap();
        assert!(sub.has_edge(n0, n1));
        assert!(sub.has_edge(n1, n3));
    }
}
