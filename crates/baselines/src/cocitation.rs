//! The rudimentary link-based measures SimRank generalises (paper §1 /
//! Related Work): **co-citation** (Small, 1973 — `AᵀA`: how many nodes
//! reference both) and **bibliographic coupling** (Kessler, 1963 — `AAᵀ`:
//! how many nodes both reference). Provided raw and cosine-normalised.

use simrank_star::SimilarityMatrix;
use ssr_graph::{DiGraph, NodeId};
use ssr_linalg::Dense;

/// Raw co-citation counts: `s(a, b) = |I(a) ∩ I(b)|`.
pub fn cocitation(g: &DiGraph) -> SimilarityMatrix {
    neighbor_overlap(g, |g, v| g.in_neighbors(v))
}

/// Raw bibliographic-coupling counts: `s(a, b) = |O(a) ∩ O(b)|`.
pub fn coupling(g: &DiGraph) -> SimilarityMatrix {
    neighbor_overlap(g, |g, v| g.out_neighbors(v))
}

/// Cosine-normalised co-citation:
/// `|I(a) ∩ I(b)| / sqrt(|I(a)|·|I(b)|)` (0 when either set is empty).
pub fn cocitation_cosine(g: &DiGraph) -> SimilarityMatrix {
    let raw = cocitation(g);
    normalise(g, raw, |g, v| g.in_degree(v))
}

/// Cosine-normalised coupling.
pub fn coupling_cosine(g: &DiGraph) -> SimilarityMatrix {
    let raw = coupling(g);
    normalise(g, raw, |g, v| g.out_degree(v))
}

fn neighbor_overlap<'g>(
    g: &'g DiGraph,
    nb: impl Fn(&'g DiGraph, NodeId) -> &'g [NodeId],
) -> SimilarityMatrix {
    let n = g.node_count();
    let mut m = Dense::zeros(n, n);
    for a in 0..n as NodeId {
        let na = nb(g, a);
        for b in a..n as NodeId {
            let nbr = nb(g, b);
            let c = sorted_intersection_size(na, nbr) as f64;
            m.set(a as usize, b as usize, c);
            m.set(b as usize, a as usize, c);
        }
    }
    SimilarityMatrix::from_dense(m)
}

fn normalise(
    g: &DiGraph,
    raw: SimilarityMatrix,
    deg: impl Fn(&DiGraph, NodeId) -> usize,
) -> SimilarityMatrix {
    let n = g.node_count();
    let mut m = raw.into_dense();
    for a in 0..n {
        for b in 0..n {
            let da = deg(g, a as NodeId);
            let db = deg(g, b as NodeId);
            let denom = ((da * db) as f64).sqrt();
            let v = if denom > 0.0 { m.get(a, b) / denom } else { 0.0 };
            m.set(a, b, v);
        }
    }
    SimilarityMatrix::from_dense(m)
}

fn sorted_intersection_size(xs: &[NodeId], ys: &[NodeId]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn cocitation_counts_shared_citers() {
        let s = cocitation(&diamond());
        // 1 and 2 are both cited by 0.
        assert_eq!(s.score(1, 2), 1.0);
        // 0 has no citers.
        assert_eq!(s.score(0, 1), 0.0);
        // Self co-citation = in-degree.
        assert_eq!(s.score(3, 3), 2.0);
    }

    #[test]
    fn coupling_counts_shared_references() {
        let s = coupling(&diamond());
        // 1 and 2 both cite 3.
        assert_eq!(s.score(1, 2), 1.0);
        assert_eq!(s.score(0, 0), 2.0);
    }

    #[test]
    fn cosine_in_unit_range() {
        let g = diamond();
        let s = cocitation_cosine(&g);
        assert!(s.max_norm() <= 1.0 + 1e-12);
        assert_eq!(s.score(1, 2), 1.0); // identical singleton citer sets
    }

    #[test]
    fn coupling_is_cocitation_on_transpose() {
        let g = diamond();
        let a = coupling(&g);
        let b = cocitation(&g.transpose());
        assert!(a.matrix().approx_eq(b.matrix(), 0.0));
        let a = coupling_cosine(&g);
        let b = cocitation_cosine(&g.transpose());
        assert!(a.matrix().approx_eq(b.matrix(), 0.0));
    }

    #[test]
    fn simrank_refines_cocitation() {
        // Nodes with zero co-citation can still be SimRank-similar through
        // recursion — the paper's motivation for SimRank over co-citation.
        // two-hop shared ancestry: 0 -> 1 -> 3, 0 -> 2 -> 4.
        let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]).unwrap();
        let cc = cocitation(&g);
        assert_eq!(cc.score(3, 4), 0.0);
        let sr = crate::simrank::simrank(&g, 0.8, 10);
        assert!(sr.score(3, 4) > 0.0);
    }
}
