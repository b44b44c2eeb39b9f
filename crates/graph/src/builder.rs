use crate::{DiGraph, GraphError, NodeId};

/// Incremental graph construction with policy knobs.
///
/// The builder grows the node count automatically as edges are added
/// (`node_count = max endpoint + 1` unless [`GraphBuilder::reserve_nodes`]
/// raised it), collapses duplicate edges, and can reject self-loops — the
/// paper's graphs (citation and co-authorship networks) are loop-free, and a
/// self-loop would make a node an in-neighbor of itself, quietly distorting
/// every similarity measure.
///
/// ```
/// use ssr_graph::GraphBuilder;
/// let g = GraphBuilder::new()
///     .allow_self_loops(false)
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .build()
///     .unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    min_nodes: usize,
    allow_self_loops: bool,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// A fresh builder: no edges, self-loops rejected.
    pub fn new() -> Self {
        GraphBuilder { edges: Vec::new(), min_nodes: 0, allow_self_loops: false }
    }

    /// Pre-sizes the edge buffer.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder { edges: Vec::with_capacity(edges), min_nodes: 0, allow_self_loops: false }
    }

    /// Whether `v -> v` edges are accepted (default: no).
    pub fn allow_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Ensures the built graph has at least `n` nodes even if the trailing
    /// ones are isolated.
    pub fn reserve_nodes(mut self, n: usize) -> Self {
        self.min_nodes = self.min_nodes.max(n);
        self
    }

    /// Adds one directed edge (chainable).
    pub fn add_edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Adds one directed edge (by reference, for loops).
    pub fn push_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Adds both `u -> v` and `v -> u` (undirected edge).
    pub fn push_undirected(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
        self.edges.push((v, u));
    }

    /// Extends from an iterator of edges.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        self.edges.extend(iter);
    }

    /// Number of edges buffered so far (before dedup).
    pub fn buffered_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the graph.
    ///
    /// # Errors
    /// [`GraphError::SelfLoop`] if a self-loop was added while forbidden.
    pub fn build(self) -> Result<DiGraph, GraphError> {
        if !self.allow_self_loops {
            if let Some(&(v, _)) = self.edges.iter().find(|&&(u, v)| u == v) {
                return Err(GraphError::SelfLoop(v));
            }
        }
        let n = self
            .edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_nodes);
        DiGraph::from_edges(n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_node_count() {
        let g = GraphBuilder::new().add_edge(3, 7).build().unwrap();
        assert_eq!(g.node_count(), 8);
    }

    #[test]
    fn reserve_nodes_adds_isolated() {
        let g = GraphBuilder::new().add_edge(0, 1).reserve_nodes(10).build().unwrap();
        assert_eq!(g.node_count(), 10);
    }

    #[test]
    fn self_loop_rejected_by_default() {
        let err = GraphBuilder::new().add_edge(2, 2).build().unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(2));
    }

    #[test]
    fn self_loop_allowed_when_opted_in() {
        let g = GraphBuilder::new().allow_self_loops(true).add_edge(2, 2).build().unwrap();
        assert!(g.has_edge(2, 2));
    }

    #[test]
    fn dedup_happens_on_build() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.push_edge(0, 1);
        }
        assert_eq!(b.buffered_edges(), 5);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn undirected_push() {
        let mut b = GraphBuilder::new();
        b.push_undirected(0, 1);
        let g = b.build().unwrap();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.node_count(), 0);
    }
}
