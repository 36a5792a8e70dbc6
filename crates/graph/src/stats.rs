//! Dataset statistics (used for Table 1 style reporting).

use crate::graph::{DataGraph, NodeId};
use crate::traversal::bfs_depths;

/// Summary statistics of a data graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Number of distinct values of the `label` attribute.
    pub distinct_labels: usize,
    /// Maximum out-degree.
    pub(crate) max_out_degree: usize,
    /// Maximum in-degree.
    pub(crate) max_in_degree: usize,
    /// Average BFS depth from the source nodes (in-degree 0), if any node is
    /// reachable from a source.
    pub(crate) avg_depth: f64,
    /// Maximum BFS depth from the source nodes.
    pub max_depth: usize,
    /// Approximate in-memory size in bytes (nodes, edges and attributes).
    pub(crate) approx_bytes: usize,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn compute(g: &DataGraph) -> Self {
        // Distinct label values come straight from the inverted index.
        let distinct_labels = g
            .symbols()
            .get(crate::LABEL_ATTR)
            .map(|sym| g.attr_index().distinct_values(sym))
            .unwrap_or(0);

        let max_out_degree = g.nodes().map(|v| g.out_degree(v)).max().unwrap_or(0);
        let max_in_degree = g.nodes().map(|v| g.in_degree(v)).max().unwrap_or(0);

        let depths = bfs_depths(g);
        let reached: Vec<usize> = depths.iter().filter_map(|d| *d).collect();
        let avg_depth = if reached.is_empty() {
            0.0
        } else {
            reached.iter().sum::<usize>() as f64 / reached.len() as f64
        };
        let max_depth = reached.iter().copied().max().unwrap_or(0);

        // CSR layout: two offset arrays plus two flat target arrays, the
        // attribute tuples, and the inverted-index posting entries.
        let approx_bytes = (g.node_count() + 1) * std::mem::size_of::<u32>() * 2
            + g.edge_count() * std::mem::size_of::<NodeId>() * 2
            + g.attribute_count() * 24
            + g.attr_index().entry_count() * std::mem::size_of::<NodeId>();

        Self {
            nodes: g.node_count(),
            edges: g.edge_count(),
            distinct_labels,
            max_out_degree,
            max_in_degree,
            avg_depth,
            max_depth,
            approx_bytes,
        }
    }

    /// Dataset size in megabytes (approximate), mirroring Table 1's "MB" column.
    pub fn approx_megabytes(&self) -> f64 {
        self.approx_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    use super::*;

    #[test]
    fn stats_of_small_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("A");
        let c = b.add_node_with_label("B");
        let d = b.add_node_with_label("B");
        b.add_edge(a, c);
        b.add_edge(a, d);
        b.add_edge(c, d);
        let g = b.build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.distinct_labels, 2);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        // BFS depth: both children of the root are discovered at depth 1.
        assert_eq!(s.max_depth, 1);
        assert!(s.approx_bytes > 0);
        assert!(s.approx_megabytes() > 0.0);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = GraphBuilder::new().build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.avg_depth, 0.0);
    }
}
