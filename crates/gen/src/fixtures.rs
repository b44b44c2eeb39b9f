//! Exact reconstructions of the paper's worked examples.
//!
//! The Figure 1 graph is reverse-engineered from every structural fact the
//! paper states about it:
//!
//! * the in-link paths `h ← e ← a → d` and `h ← e ← a → b → f → d`
//!   (so `a→e, e→h, a→d, a→b, b→f, f→d`);
//! * `a` has no in-neighbors (`s(a, g) = 0` "as a has no in-neighbors");
//! * the symmetric paths `g ← b → i` and `g ← d → i` (so `b→g, b→i, d→g,
//!   d→i`);
//! * the Figure 4 induced bigraph: `T = {a,b,d,e,f,h,j,k}`,
//!   `B = {b,c,d,e,f,g,h,i}`, with bicliques `({b,d}, {c,g,i})` and
//!   `({e,j,k}, {h,i})`;
//! * Example 2: `I(h) = {e,j,k}` and `I(i) = {b,d} ∪ {e,j,k} ∪ {h}`.

use ssr_graph::{DiGraph, NodeId};

/// Node labels of the Figure 1 citation graph, index = node id.
pub const FIG1_LABELS: [&str; 11] = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"];

/// Node ids of the Figure 1 graph, for readable test code.
#[allow(missing_docs)]
pub mod fig1 {
    use ssr_graph::NodeId;
    pub const A: NodeId = 0;
    pub const B: NodeId = 1;
    pub const C: NodeId = 2;
    pub const D: NodeId = 3;
    pub const E: NodeId = 4;
    pub const F: NodeId = 5;
    pub const G: NodeId = 6;
    pub const H: NodeId = 7;
    pub const I: NodeId = 8;
    pub const J: NodeId = 9;
    pub const K: NodeId = 10;
}

/// The 11-node, 18-edge citation graph of Figure 1.
pub fn figure1_graph() -> DiGraph {
    use fig1::*;
    DiGraph::from_edges(
        11,
        &[
            (A, B),
            (A, D),
            (A, E),
            (B, C),
            (B, F),
            (B, G),
            (B, I),
            (D, C),
            (D, G),
            (D, I),
            (E, H),
            (E, I),
            (F, D),
            (H, I),
            (J, H),
            (J, I),
            (K, H),
            (K, I),
        ],
    )
    .expect("figure 1 graph is well-formed")
}

/// Node ids of the Figure 3 family tree.
#[allow(missing_docs)]
pub mod family {
    use ssr_graph::NodeId;
    pub const GRANDPA: NodeId = 0;
    pub const FATHER: NodeId = 1;
    pub const UNCLE: NodeId = 2;
    pub const ME: NodeId = 3;
    pub const COUSIN: NodeId = 4;
    pub const SON: NodeId = 5;
    pub const GRANDSON: NodeId = 6;
}

/// The Figure 3 family tree: edges point from parent to child
/// (Grandpa→{Father, Uncle}, Father→Me, Uncle→Cousin, Me→Son, Son→Grandson).
///
/// The paper's in-link-path argument on this graph: `ρ_A` (Me ↔ Cousin,
/// symmetric via Grandpa) should outweigh `ρ_B` (Uncle ↔ Son) which should
/// outweigh `ρ_C` (Grandpa ↔ Grandson, fully unidirectional).
pub fn family_tree() -> DiGraph {
    use family::*;
    DiGraph::from_edges(
        7,
        &[
            (GRANDPA, FATHER),
            (GRANDPA, UNCLE),
            (FATHER, ME),
            (UNCLE, COUSIN),
            (ME, SON),
            (SON, GRANDSON),
        ],
    )
    .expect("family tree is well-formed")
}

/// The Section 1 two-arm path graph
/// `a_{-n} ← … ← a_{-1} ← a_0 → a_1 → … → a_n`.
///
/// Node ids: `0..=2n`, with the root `a_0` at id `n`; `a_{-k}` is `n - k`
/// and `a_k` is `n + k`. SimRank is zero for every pair `(a_i, a_j)` with
/// `|i| ≠ |j|` — the paper's canonical "zero-similarity" example.
pub fn two_arm_path(n: usize) -> DiGraph {
    let root = n as NodeId;
    let mut edges = Vec::with_capacity(2 * n);
    for k in 0..n as NodeId {
        // left arm: a_{-k} <- a_{-(k+1)} means edge from closer-to-root
        edges.push((root - k, root - k - 1));
        edges.push((root + k, root + k + 1));
    }
    DiGraph::from_edges(2 * n + 1, &edges).expect("path graph is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_matches_stated_structure() {
        use fig1::*;
        let g = figure1_graph();
        assert_eq!(g.node_count(), 11);
        assert_eq!(g.edge_count(), 18);
        // a has no in-neighbors.
        assert_eq!(g.in_degree(A), 0);
        // I(h) = {e, j, k}.
        assert_eq!(g.in_neighbors(H), &[E, J, K]);
        // I(i) = {b, d, e, h, j, k}.
        assert_eq!(g.in_neighbors(I), &[B, D, E, H, J, K]);
        // The two in-link paths of Example 1 exist.
        assert!(g.has_edge(A, E) && g.has_edge(E, H) && g.has_edge(A, D));
        assert!(g.has_edge(A, B) && g.has_edge(B, F) && g.has_edge(F, D));
        // g <- b -> i and g <- d -> i.
        assert!(g.has_edge(B, G) && g.has_edge(B, I));
        assert!(g.has_edge(D, G) && g.has_edge(D, I));
    }

    #[test]
    fn figure1_bigraph_matches_figure4() {
        use fig1::*;
        let g = figure1_graph();
        // T = nodes with out-edges, B = nodes with in-edges, one bigraph
        // edge per graph edge.
        let top: Vec<NodeId> = g.nodes().filter(|&v| g.out_degree(v) > 0).collect();
        let bottom: Vec<NodeId> = g.nodes().filter(|&v| g.in_degree(v) > 0).collect();
        assert_eq!(top, [A, B, D, E, F, H, J, K]);
        assert_eq!(bottom, [B, C, D, E, F, G, H, I]);
        assert_eq!(g.edge_count(), 18);
        // Biclique ({b,d}, {c,g,i}).
        for &x in &[B, D] {
            for &y in &[C, G, I] {
                assert!(g.has_edge(x, y), "missing biclique-1 edge");
            }
        }
        // Biclique ({e,j,k}, {h,i}).
        for &x in &[E, J, K] {
            for &y in &[H, I] {
                assert!(g.has_edge(x, y), "missing biclique-2 edge");
            }
        }
    }

    #[test]
    fn figure1_zero_simrank_pairs() {
        use fig1::*;
        use ssr_graph::paths::ZeroSimRankOracle;
        let g = figure1_graph();
        let oracle = ZeroSimRankOracle::build(&g);
        // Column `SR` of the Figure 1 table: zeros...
        assert!(!oracle.is_nonzero(H, D));
        assert!(!oracle.is_nonzero(A, F));
        assert!(!oracle.is_nonzero(A, C));
        assert!(!oracle.is_nonzero(G, A));
        assert!(!oracle.is_nonzero(I, A));
        // ...and the one stated non-zero: s(i, h) = .044.
        assert!(oracle.is_nonzero(I, H));
        // g and i share sources b, d at distance 1.
        assert!(oracle.is_nonzero(G, I));
    }

    #[test]
    fn family_tree_shape() {
        use family::*;
        let g = family_tree();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.in_degree(GRANDPA), 0);
        assert_eq!(g.out_degree(GRANDSON), 0);
        // Me and Cousin share grandpa at distance 2 (symmetric path).
        assert!(ssr_graph::paths::has_symmetric_inlink_path(&g, ME, COUSIN, 3));
        // Uncle and Son share grandpa at distances 1 vs 3 (dissymmetric only).
        assert!(!ssr_graph::paths::has_symmetric_inlink_path(&g, UNCLE, SON, 6));
        assert!(ssr_graph::paths::has_dissymmetric_inlink_path(&g, UNCLE, SON, 4));
    }

    #[test]
    fn two_arm_path_structure() {
        let g = two_arm_path(3);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6);
        // Root (id 3) has no in-neighbors and out-degree 2.
        assert_eq!(g.in_degree(3), 0);
        assert_eq!(g.out_degree(3), 2);
        // Ends have out-degree 0 (id 0 and 6).
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.out_degree(6), 0);
        // a_{-1} (id 2) and a_1 (id 4) have symmetric path via the root.
        assert!(ssr_graph::paths::has_symmetric_inlink_path(&g, 2, 4, 3));
        // a_{-1} and a_2 (id 5) do not.
        assert!(!ssr_graph::paths::has_symmetric_inlink_path(&g, 2, 5, 6));
    }
}
