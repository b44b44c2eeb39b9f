use std::fmt;

/// Errors produced while constructing or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id `>= node_count`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The declared number of nodes.
        node_count: usize,
    },
    /// A self-loop `v -> v` was encountered while the builder forbids them.
    SelfLoop(
        /// The node with the self-loop.
        u32,
    ),
    /// An edge-list line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An I/O error (wrapped as a string so the error stays `Clone + Eq`).
    Io(
        /// The underlying I/O error message.
        String,
    ),
    /// An edge delta's added edges named a node id at or past `limit`,
    /// the node count plus two per distinct added edge (see
    /// [`crate::DiGraph::with_delta`]).
    NodeGrowth {
        /// The largest added node id.
        node: u32,
        /// The node count the delta may grow the graph to.
        limit: usize,
    },
    /// Raw CSR arrays handed to [`crate::DiGraph::from_csr`] were
    /// structurally inconsistent (non-monotone offsets, unsorted
    /// adjacency, out-of-range ids, mismatched directions).
    InvalidCsr(
        /// Description of the inconsistency.
        String,
    ),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node id {node} out of range (node count {node_count})")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop on node {v} is not allowed"),
            GraphError::Parse { line, message } => {
                write!(f, "edge-list parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "I/O error: {msg}"),
            GraphError::NodeGrowth { node, limit } => write!(
                f,
                "added node id {node} would grow the graph past {limit} nodes \
                 (its node count plus 2 per distinct added edge)"
            ),
            GraphError::InvalidCsr(msg) => write!(f, "invalid CSR arrays: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}
